/**
 * @file
 * Tests for the notification models (polling vs interrupt with
 * moderation) and the kernel-stack surcharge.
 */

#include <gtest/gtest.h>

#include "workload/LatencyHarness.hh"

using namespace netdimm;

namespace
{
SystemConfig
quiet()
{
    setQuiet(true);
    return SystemConfig{};
}
} // namespace

class NotifyModeTest : public ::testing::TestWithParam<NicKind>
{
};

TEST_P(NotifyModeTest, InterruptAddsDeliveryLatency)
{
    SystemConfig poll = quiet();
    poll.sw.notify = NotifyMode::Polling;
    SystemConfig intr = quiet();
    intr.sw.notify = NotifyMode::Interrupt;

    double p = LatencyHarness(poll, GetParam()).run(256).totalUs;
    double i = LatencyHarness(intr, GetParam()).run(256).totalUs;
    double penalty_us = i - p;
    // The interrupt path costs roughly its configured latency extra.
    EXPECT_GT(penalty_us, 0.5 * ticksToUs(intr.sw.interruptLatency));
    EXPECT_LT(penalty_us, 3.0 * ticksToUs(intr.sw.interruptLatency));
}

TEST_P(NotifyModeTest, KernelStackSurchargeAppliesBothSides)
{
    SystemConfig bare = quiet();
    SystemConfig kern = quiet();
    kern.sw.kernelStackCycles = 8000;

    double b = LatencyHarness(bare, GetParam()).run(256).totalUs;
    double k = LatencyHarness(kern, GetParam()).run(256).totalUs;
    // 8000 cycles at 3.4GHz ~= 2.35us per side -> ~4.7us one-way.
    EXPECT_NEAR(k - b, 2.0 * 8000.0 * 0.294 / 1000.0, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Nics, NotifyModeTest,
    ::testing::Values(NicKind::Discrete, NicKind::Integrated,
                      NicKind::NetDimm),
    [](const ::testing::TestParamInfo<NicKind> &info) {
        std::string n = nicKindName(info.param);
        for (auto &c : n)
            if (c == '.')
                c = '_';
        return n;
    });

TEST(NotifyModes, KernelStackFadesNetDimmGain)
{
    // The Sec. 5.1 claim: with a heavy kernel stack, the relative
    // improvement of NetDIMM over dNIC shrinks.
    SystemConfig bare = quiet();
    SystemConfig kern = quiet();
    kern.sw.kernelStackCycles = 20000;

    auto gain = [](const SystemConfig &cfg) {
        double d =
            LatencyHarness(cfg, NicKind::Discrete).run(256).totalUs;
        double n =
            LatencyHarness(cfg, NicKind::NetDimm).run(256).totalUs;
        return 1.0 - n / d;
    };
    double g_bare = gain(bare);
    double g_kern = gain(kern);
    EXPECT_GT(g_bare, 0.4);
    EXPECT_LT(g_kern, 0.6 * g_bare);
}

TEST(NotifyModes, AdaptivePollingMatchesPollingUnderSteadyTraffic)
{
    // A ping train with 2us gaps stays inside the 50us adaptive
    // window after the first packet, so steady-state latency matches
    // pure polling (only the cold-start packet pays an interrupt,
    // and warmup swallows it).
    SystemConfig poll = quiet();
    poll.sw.notify = NotifyMode::Polling;
    SystemConfig adapt = quiet();
    adapt.sw.notify = NotifyMode::AdaptivePolling;

    double p =
        LatencyHarness(poll, NicKind::NetDimm).run(256, 20, 6).totalUs;
    double a = LatencyHarness(adapt, NicKind::NetDimm)
                   .run(256, 20, 6)
                   .totalUs;
    EXPECT_NEAR(a, p, 0.05 * p);
}

TEST(NotifyModes, AdaptivePollingPaysInterruptAfterIdle)
{
    SystemConfig cfg = quiet();
    cfg.nic = NicKind::Integrated;
    cfg.sw.notify = NotifyMode::AdaptivePolling;

    EventQueue eq;
    Node a(eq, "a", cfg, 0), b(eq, "b", cfg, 1);
    EthLink link(eq, "link", cfg.eth);
    connectNodes(link, a, b);

    std::vector<PacketPtr> got;
    b.setReceiveHandler(
        [&](const PacketPtr &pkt, Tick) { got.push_back(pkt); });

    // Packet 1 (cold), packet 2 right behind it (inside the window),
    // packet 3 after a long idle gap (window expired).
    eq.schedule(usToTicks(1),
                [&] { a.sendPacket(a.makeTxPacket(256, b.id(), 3)); });
    eq.schedule(usToTicks(10),
                [&] { a.sendPacket(a.makeTxPacket(256, b.id(), 3)); });
    eq.schedule(usToTicks(500),
                [&] { a.sendPacket(a.makeTxPacket(256, b.id(), 3)); });
    eq.run();
    ASSERT_EQ(got.size(), 3u);
    double warm = ticksToUs(got[1]->oneWayLatency());
    double idle = ticksToUs(got[2]->oneWayLatency());
    // The post-idle packet pays a fresh interrupt; the in-window one
    // does not.
    EXPECT_GT(idle, warm + 0.5 * ticksToUs(cfg.sw.interruptLatency));
}

TEST(NotifyModes, ModerationBatchesBackToBackArrivals)
{
    // Two packets arriving inside one moderation window: the second
    // is noticed no later than (roughly) the first's delivery, not a
    // full interrupt latency after its own arrival.
    SystemConfig cfg = quiet();
    cfg.nic = NicKind::Integrated;
    cfg.sw.notify = NotifyMode::Interrupt;

    EventQueue eq;
    Node a(eq, "a", cfg, 0), b(eq, "b", cfg, 1);
    EthLink link(eq, "link", cfg.eth);
    connectNodes(link, a, b);

    std::vector<PacketPtr> got;
    b.setReceiveHandler(
        [&](const PacketPtr &pkt, Tick) { got.push_back(pkt); });
    // Same flow: arrivals land ~360ns apart, far inside the 4us
    // moderation window.
    a.sendPacket(a.makeTxPacket(1460, b.id(), 3));
    a.sendPacket(a.makeTxPacket(1460, b.id(), 3));
    eq.run();
    ASSERT_EQ(got.size(), 2u);
    // Both one-way latencies include roughly ONE interrupt delivery;
    // the second is not double-charged.
    double l0 = ticksToUs(got[0]->oneWayLatency());
    double l1 = ticksToUs(got[1]->oneWayLatency());
    EXPECT_LT(l1, l0 + ticksToUs(cfg.sw.interruptLatency));
}
