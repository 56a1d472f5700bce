/**
 * @file
 * End-to-end integration tests: two full nodes over a 40GbE link for
 * each NIC architecture; latency breakdown consistency; the paper's
 * qualitative orderings (NetDIMM < iNIC < dNIC; zero-copy helps;
 * PCIe share only on dNIC).
 */

#include <gtest/gtest.h>

#include "workload/LatencyHarness.hh"

using namespace netdimm;

namespace
{
SystemConfig
quietCfg()
{
    setQuiet(true);
    return SystemConfig{};
}
} // namespace

/** Parameterized over NIC kind: basic end-to-end delivery. */
class NodeE2E : public ::testing::TestWithParam<NicKind>
{
};

TEST_P(NodeE2E, PacketDeliversWithConsistentBreakdown)
{
    SystemConfig cfg = quietCfg();
    PingResult r = LatencyHarness(cfg, GetParam()).run(256, 10, 4);
    EXPECT_EQ(r.packets, 10);
    EXPECT_GT(r.totalUs, 0.1);
    EXPECT_LT(r.totalUs, 20.0);

    // The named components sum to (approximately) the total: every
    // piece of the one-way path is attributed somewhere.
    double sum = 0.0;
    for (double c : r.compUs)
        sum += c;
    EXPECT_NEAR(sum, r.totalUs, 0.05 * r.totalUs);
}

TEST_P(NodeE2E, LatencyMonotonicallyGrowsWithPacketSize)
{
    SystemConfig cfg = quietCfg();
    LatencyHarness h(cfg, GetParam());
    double prev = 0.0;
    for (std::uint32_t bytes : {64u, 512u, 1460u, 4096u}) {
        double t = h.run(bytes, 10, 4).totalUs;
        EXPECT_GT(t, prev) << "at " << bytes;
        prev = t;
    }
}

TEST_P(NodeE2E, WireComponentMatchesLinkMath)
{
    SystemConfig cfg = quietCfg();
    PingResult r = LatencyHarness(cfg, GetParam()).run(1000, 10, 4);
    // One link, no switch: serialization + propagation + MAC.
    double expect =
        ticksToUs(serializationTicks(1024, cfg.eth.gbps) +
                  cfg.eth.propagation + cfg.eth.macLatency);
    EXPECT_NEAR(r.compUs[std::size_t(LatComp::Wire)], expect,
                0.1 * expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllNics, NodeE2E,
    ::testing::Values(NicKind::Discrete, NicKind::DiscreteZeroCopy,
                      NicKind::Integrated,
                      NicKind::IntegratedZeroCopy, NicKind::NetDimm),
    [](const ::testing::TestParamInfo<NicKind> &info) {
        std::string n = nicKindName(info.param);
        for (auto &c : n)
            if (c == '.')
                c = '_';
        return n;
    });

TEST(NodeE2EOrdering, NetDimmBeatsDnicAcrossSizes)
{
    SystemConfig cfg = quietCfg();
    for (std::uint32_t bytes : {64u, 256u, 1024u, 1460u}) {
        double d =
            LatencyHarness(cfg, NicKind::Discrete).run(bytes).totalUs;
        double n =
            LatencyHarness(cfg, NicKind::NetDimm).run(bytes).totalUs;
        EXPECT_LT(n, d) << "NetDIMM slower than dNIC at " << bytes;
        // The paper reports ~46-53% gains in this size range.
        EXPECT_GT(1.0 - n / d, 0.30) << "gain too small at " << bytes;
        EXPECT_LT(1.0 - n / d, 0.70) << "gain too large at " << bytes;
    }
}

TEST(NodeE2EOrdering, InicBeatsDnicAndLosesToNetDimm)
{
    SystemConfig cfg = quietCfg();
    for (std::uint32_t bytes : {64u, 256u, 1024u}) {
        double d =
            LatencyHarness(cfg, NicKind::Discrete).run(bytes).totalUs;
        double i =
            LatencyHarness(cfg, NicKind::Integrated).run(bytes).totalUs;
        double n =
            LatencyHarness(cfg, NicKind::NetDimm).run(bytes).totalUs;
        EXPECT_LT(i, d);
        EXPECT_LT(n, i);
    }
}

TEST(NodeE2EOrdering, ZeroCopyHelpsAndHelpsMoreForLargePackets)
{
    SystemConfig cfg = quietCfg();
    auto gain = [&](std::uint32_t bytes) {
        double base =
            LatencyHarness(cfg, NicKind::Integrated).run(bytes).totalUs;
        double z = LatencyHarness(cfg, NicKind::IntegratedZeroCopy)
                       .run(bytes)
                       .totalUs;
        return 1.0 - z / base;
    };
    double small = gain(64);
    double large = gain(2000);
    EXPECT_GT(small, 0.0);
    EXPECT_GT(large, small);
    // Paper: 52.3% at 2000B for iNIC.zcpy.
    EXPECT_GT(large, 0.25);
}

TEST(NodeE2EOrdering, PcieShareOnlyOnDiscrete)
{
    SystemConfig cfg = quietCfg();
    PingResult d = LatencyHarness(cfg, NicKind::Discrete).run(64);
    PingResult i = LatencyHarness(cfg, NicKind::Integrated).run(64);
    PingResult n = LatencyHarness(cfg, NicKind::NetDimm).run(64);
    EXPECT_GT(d.pcieFraction(), 0.3); // PCIe dominates dNIC
    EXPECT_LT(d.pcieFraction(), 0.95);
    EXPECT_DOUBLE_EQ(i.pcieUs, 0.0);
    EXPECT_DOUBLE_EQ(n.pcieUs, 0.0);
}

TEST(NodeE2EOrdering, PcieShareShrinksWithPacketSizeForZcpy)
{
    SystemConfig cfg = quietCfg();
    LatencyHarness h(cfg, NicKind::DiscreteZeroCopy);
    double small = h.run(10).pcieFraction();
    double large = h.run(2000).pcieFraction();
    // Paper: 40.9% at 10B -> 34.3% at 2000B.
    EXPECT_GT(small, large);
}

TEST(NodeE2EComponents, NetDimmHasFlushAndInvalidateOthersDont)
{
    SystemConfig cfg = quietCfg();
    PingResult n = LatencyHarness(cfg, NicKind::NetDimm).run(1024);
    PingResult d = LatencyHarness(cfg, NicKind::Discrete).run(1024);
    EXPECT_GT(n.compUs[std::size_t(LatComp::TxFlush)], 0.0);
    EXPECT_GT(n.compUs[std::size_t(LatComp::RxInvalidate)], 0.0);
    EXPECT_DOUBLE_EQ(d.compUs[std::size_t(LatComp::TxFlush)], 0.0);
    EXPECT_DOUBLE_EQ(d.compUs[std::size_t(LatComp::RxInvalidate)],
                     0.0);
    // NetDIMM's fast path leaves only SKB bookkeeping under txCopy:
    // no data movement, no DMA buffer allocation.
    EXPECT_LT(n.compUs[std::size_t(LatComp::TxCopy)],
              0.5 * d.compUs[std::size_t(LatComp::TxCopy)]);
}

TEST(NodeE2EComponents, IoRegCheaperOffPcie)
{
    SystemConfig cfg = quietCfg();
    PingResult d = LatencyHarness(cfg, NicKind::Discrete).run(64);
    PingResult i = LatencyHarness(cfg, NicKind::Integrated).run(64);
    PingResult n = LatencyHarness(cfg, NicKind::NetDimm).run(64);
    double dio = d.compUs[std::size_t(LatComp::IoReg)];
    double iio = i.compUs[std::size_t(LatComp::IoReg)];
    double nio = n.compUs[std::size_t(LatComp::IoReg)];
    EXPECT_GT(dio, 2.0 * iio);
    EXPECT_GT(dio, 2.0 * nio);
}

TEST(NodeE2EStats, DriverAndNicCountersAdvance)
{
    SystemConfig cfg = quietCfg();
    cfg.nic = NicKind::NetDimm;
    EventQueue eq;
    Node a(eq, "a", cfg, 0);
    Node b(eq, "b", cfg, 1);
    EthLink link(eq, "link", cfg.eth);
    connectNodes(link, a, b);

    // Send sequentially so the per-socket zone memo (set when the
    // first transmission completes) governs the later packets.
    int received = 0;
    b.setReceiveHandler([&](const PacketPtr &, Tick) {
        ++received;
        if (received < 5)
            a.sendPacket(a.makeTxPacket(256, b.id(), 3));
    });
    a.sendPacket(a.makeTxPacket(256, b.id(), 3));
    eq.run();
    EXPECT_EQ(received, 5);
    EXPECT_EQ(a.driver().txPackets(), 5u);
    EXPECT_EQ(b.driver().rxPackets(), 5u);
    EXPECT_EQ(a.netdimm()->txFrames(), 5u);
    EXPECT_EQ(b.netdimm()->rxFrames(), 5u);
    // The first packet took the COPY_NEEDED slow path, the rest the
    // fast path (socket zone memoized).
    auto *drv = static_cast<NetdimmDriver *>(&a.driver());
    EXPECT_EQ(drv->slowPathTx(), 1u);
    EXPECT_EQ(drv->fastPathTx(), 4u);
}
