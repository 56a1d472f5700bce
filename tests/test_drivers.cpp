/**
 * @file
 * Driver-level tests: TX fast/slow paths and the per-socket zone
 * memo of the NetDIMM driver (Alg. 1), zero-copy buffer identity,
 * RX-context serialization, and allocCache integration.
 */

#include <gtest/gtest.h>

#include "net/Link.hh"
#include "kernel/Node.hh"

using namespace netdimm;

namespace
{

struct Pair
{
    EventQueue eq;
    Node a;
    Node b;
    EthLink link;

    explicit Pair(NicKind kind)
        : a(eq, "a", makeCfg(kind), 0), b(eq, "b", makeCfg(kind), 1),
          link(eq, "link", a.config().eth)
    {
        connectNodes(link, a, b);
    }

    static SystemConfig
    makeCfg(NicKind kind)
    {
        setQuiet(true);
        SystemConfig cfg;
        cfg.nic = kind;
        return cfg;
    }

    /** Send sequentially, return the delivered packets. */
    std::vector<PacketPtr>
    pingTrain(int n, std::uint32_t bytes, std::uint64_t flow = 3)
    {
        std::vector<PacketPtr> out;
        int sent = 0;
        std::function<void()> next = [&] {
            if (sent++ >= n)
                return;
            a.sendPacket(a.makeTxPacket(bytes, b.id(), flow));
        };
        b.setReceiveHandler([&](const PacketPtr &pkt, Tick) {
            out.push_back(pkt);
            eq.scheduleRel(usToTicks(1), next);
        });
        next();
        eq.run();
        return out;
    }
};

} // namespace

TEST(NetdimmDriverPath, FirstPacketSlowThenFast)
{
    Pair p(NicKind::NetDimm);
    auto pkts = p.pingTrain(6, 512);
    ASSERT_EQ(pkts.size(), 6u);
    auto *drv = static_cast<NetdimmDriver *>(&p.a.driver());
    EXPECT_EQ(drv->slowPathTx(), 1u);
    EXPECT_EQ(drv->fastPathTx(), 5u);

    // The slow path is visible as txCopy on the first packet only.
    EXPECT_GT(pkts[0]->lat.get(LatComp::TxCopy),
              pkts[1]->lat.get(LatComp::TxCopy));
}

TEST(NetdimmDriverPath, DistinctFlowsLearnIndependently)
{
    Pair p(NicKind::NetDimm);
    p.pingTrain(3, 256, /*flow=*/10);
    p.pingTrain(3, 256, /*flow=*/11);
    auto *drv = static_cast<NetdimmDriver *>(&p.a.driver());
    EXPECT_EQ(drv->slowPathTx(), 2u); // one COPY_NEEDED per flow
    EXPECT_EQ(drv->fastPathTx(), 4u);
}

TEST(NetdimmDriverPath, FastPathBuffersLiveOnNetDimm)
{
    Pair p(NicKind::NetDimm);
    auto pkts = p.pingTrain(4, 512);
    Addr region = p.a.netdimm()->regionBase();
    // After pinning, application buffers (and hence DMA buffers)
    // come from the NET0 zone.
    EXPECT_GE(pkts.back()->txBufAddr, region);
    // The first (COPY_NEEDED) packet's SKB was in ZONE_NORMAL but its
    // DMA buffer on the device.
    EXPECT_LT(pkts.front()->appSrcAddr, region);
    EXPECT_GE(pkts.front()->txBufAddr, region);
}

TEST(NetdimmDriverPath, RxBuffersClonedToSameSubArray)
{
    Pair p(NicKind::NetDimm);
    auto pkts = p.pingTrain(5, 1460);
    NetDimmDevice *dev = p.b.netdimm();
    // All RX clones ran in fast parallel mode thanks to the hinted
    // allocator.
    EXPECT_EQ(dev->rowCloneEngine().fpmClones(),
              dev->rowCloneEngine().fpmClones() +
                  0 * dev->rowCloneEngine().gcmClones());
    EXPECT_GT(dev->rowCloneEngine().fpmClones(), 0u);
    EXPECT_EQ(dev->rowCloneEngine().psmClones(), 0u);
    EXPECT_EQ(dev->rowCloneEngine().gcmClones(), 0u);
    // Destination differs from source but stays in the region.
    for (const auto &pkt : pkts) {
        EXPECT_NE(pkt->appDstAddr, pkt->rxBufAddr);
        EXPECT_GE(pkt->appDstAddr, dev->regionBase());
    }
}

TEST(NetdimmDriverPath, UnhintedAllocationDegradesCloneMode)
{
    setQuiet(true);
    SystemConfig cfg;
    cfg.nic = NicKind::NetDimm;
    cfg.netdimm.subArrayHint = false;

    EventQueue eq;
    Node a(eq, "a", cfg, 0), b(eq, "b", cfg, 1);
    EthLink link(eq, "link", cfg.eth);
    connectNodes(link, a, b);
    int got = 0;
    b.setReceiveHandler([&](const PacketPtr &, Tick) { ++got; });
    for (int i = 0; i < 5; ++i) {
        eq.schedule(usToTicks(5) * Tick(i + 1), [&a, &b] {
            a.sendPacket(a.makeTxPacket(1460, b.id(), 3));
        });
    }
    eq.run();
    ASSERT_EQ(got, 5);
    // Random sub-arrays essentially never coincide: PSM/GCM clones.
    EXPECT_EQ(b.netdimm()->rowCloneEngine().fpmClones(), 0u);
}

TEST(StandardDriverPath, ZeroCopyUsesApplicationBuffers)
{
    Pair zc(NicKind::IntegratedZeroCopy);
    auto pkts = zc.pingTrain(3, 1000);
    for (const auto &pkt : pkts) {
        EXPECT_EQ(pkt->txBufAddr, pkt->appSrcAddr);
        EXPECT_EQ(pkt->appDstAddr, pkt->rxBufAddr);
    }
}

TEST(StandardDriverPath, CopyModeUsesSeparateDmaBuffers)
{
    Pair cp(NicKind::Integrated);
    auto pkts = cp.pingTrain(3, 1000);
    for (const auto &pkt : pkts) {
        EXPECT_NE(pkt->txBufAddr, pkt->appSrcAddr);
        EXPECT_NE(pkt->appDstAddr, pkt->rxBufAddr);
        EXPECT_GT(pkt->lat.get(LatComp::TxCopy), 0u);
        EXPECT_GT(pkt->lat.get(LatComp::RxCopy), 0u);
    }
}

TEST(DriverRxContexts, SameFlowSerializesProcessing)
{
    // Two packets of one flow arriving back to back: the second's
    // software processing waits for the first, so its one-way
    // latency is strictly larger.
    Pair p(NicKind::Integrated);
    std::vector<PacketPtr> got;
    p.b.setReceiveHandler(
        [&](const PacketPtr &pkt, Tick) { got.push_back(pkt); });
    // Warm the flow, then send a burst.
    p.a.sendPacket(p.a.makeTxPacket(1460, p.b.id(), 3));
    p.eq.run();
    for (int i = 0; i < 4; ++i)
        p.a.sendPacket(p.a.makeTxPacket(1460, p.b.id(), 3));
    p.eq.run();
    ASSERT_EQ(got.size(), 5u);
    EXPECT_GT(got[4]->oneWayLatency(), got[1]->oneWayLatency());
}

TEST(DriverStats, TxRxCountersMatchTraffic)
{
    Pair p(NicKind::Discrete);
    p.pingTrain(7, 200);
    EXPECT_EQ(p.a.driver().txPackets(), 7u);
    EXPECT_EQ(p.b.driver().rxPackets(), 7u);
    EXPECT_EQ(p.a.nic()->txFrames(), 7u);
    EXPECT_EQ(p.b.nic()->rxFrames(), 7u);
    EXPECT_EQ(p.b.nic()->rxDrops(), 0u);
}

TEST(DriverStats, AllocCacheServesNetdimmBuffers)
{
    Pair p(NicKind::NetDimm);
    p.pingTrain(6, 512);
    AllocCache *ac = p.b.allocCache();
    ASSERT_NE(ac, nullptr);
    EXPECT_GT(ac->fastHits(), 0u);
    EXPECT_EQ(ac->slowAllocs(), 0u);
}
