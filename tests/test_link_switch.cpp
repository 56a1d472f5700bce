/**
 * @file
 * Unit tests for the Ethernet link, switch and clos fabric models.
 */

#include <gtest/gtest.h>

#include "net/Switch.hh"

using namespace netdimm;

namespace
{

struct SinkEndpoint : NetEndpoint
{
    EventQueue &eq;
    std::vector<std::pair<PacketPtr, Tick>> got;

    explicit SinkEndpoint(EventQueue &e) : eq(e) {}

    void
    deliver(const PacketPtr &pkt) override
    {
        got.emplace_back(pkt, eq.curTick());
    }
};

/** A fluid backlog frozen at a fixed number of frames. */
struct FixedBacklog : FluidBackground
{
    std::uint64_t frames;

    explicit FixedBacklog(std::uint64_t f) : frames(f) {}

    std::uint64_t backlogWireBytesAt(Tick) const override
    {
        return frames * 1524;
    }
    std::uint64_t backlogFramesAt(Tick) const override { return frames; }
    void onPacketWireBytes(std::uint32_t) override {}
};

/** Far end of a half-link that keeps nothing. */
struct NullSink : CrossShardSink
{
    void push(Tick, Tick, const Packet &) override {}
};

} // namespace

TEST(EthLink, FrameTicksIncludeFramingAndMinSize)
{
    EventQueue eq;
    EthConfig cfg;
    EthLink link(eq, "l", cfg);
    // A 10B payload pads to the 64B minimum frame + 24B framing.
    EXPECT_EQ(link.frameTicks(10), serializationTicks(88, 40.0));
    EXPECT_EQ(link.frameTicks(1500), serializationTicks(1524, 40.0));
}

TEST(EthLink, DeliversToOppositeEndWithWireLatency)
{
    EventQueue eq;
    EthConfig cfg;
    EthLink link(eq, "l", cfg);
    SinkEndpoint a(eq), b(eq);
    link.connect(&a, &b);

    PacketPtr pkt = makePacket(1000, 0, 1);
    link.send(&a, pkt);
    eq.run();

    ASSERT_EQ(b.got.size(), 1u);
    EXPECT_TRUE(a.got.empty());
    Tick expect = link.frameTicks(1000) + cfg.propagation +
                  cfg.macLatency;
    EXPECT_EQ(b.got[0].second, expect);
    EXPECT_EQ(pkt->lat.get(LatComp::Wire), expect);
}

TEST(EthLink, DirectionBIsIndependent)
{
    EventQueue eq;
    EthConfig cfg;
    EthLink link(eq, "l", cfg);
    SinkEndpoint a(eq), b(eq);
    link.connect(&a, &b);
    link.send(&b, makePacket(64, 1, 0));
    eq.run();
    EXPECT_EQ(a.got.size(), 1u);
}

TEST(EthLinkDeathTest, HalfLinkCannotChangeState)
{
    // Frames already pushed into a cross-shard channel would still
    // arrive and the far shard would never hear of the transition, so
    // a half-link refuses every state change.
    EventQueue eq;
    EthConfig cfg;
    EthLink link(eq, "half", cfg);
    SinkEndpoint a(eq);
    NullSink far;
    link.connectRemote(&a, &far);
    FaultRegistry reg(1);
    EXPECT_DEATH(link.setLinkState(false), "half-link");
    EXPECT_DEATH(link.scheduleFlap(10, 5), "half-link");
    EXPECT_DEATH(link.setFaultDomain(&reg.domain("half")), "half-link");
    EXPECT_TRUE(link.up());
}

TEST(EthLink, BackToBackFramesSerialize)
{
    EventQueue eq;
    EthConfig cfg;
    EthLink link(eq, "l", cfg);
    SinkEndpoint a(eq), b(eq);
    link.connect(&a, &b);

    link.send(&a, makePacket(1500, 0, 1));
    link.send(&a, makePacket(1500, 0, 1));
    eq.run();
    ASSERT_EQ(b.got.size(), 2u);
    EXPECT_EQ(b.got[1].second - b.got[0].second,
              link.frameTicks(1500));
    EXPECT_EQ(link.framesCarried(), 2u);
    EXPECT_EQ(link.bytesCarried(), 3000u);
}

TEST(Switch, RoutesByDestination)
{
    EventQueue eq;
    EthConfig cfg;
    Switch sw(eq, "sw", cfg.switchLatency);
    EthLink l1(eq, "l1", cfg), l2(eq, "l2", cfg);
    SinkEndpoint n1(eq), n2(eq);
    l1.connect(&sw, &n1);
    l2.connect(&sw, &n2);
    sw.addRoute(1, &l1);
    sw.addRoute(2, &l2);

    sw.deliver(makePacket(100, 0, 2));
    sw.deliver(makePacket(100, 0, 1));
    eq.run();
    EXPECT_EQ(n1.got.size(), 1u);
    EXPECT_EQ(n2.got.size(), 1u);
    EXPECT_EQ(sw.framesForwarded(), 2u);
}

TEST(Switch, AddsPortLatency)
{
    EventQueue eq;
    EthConfig cfg;
    Switch sw(eq, "sw", nsToTicks(100));
    EthLink l(eq, "l", cfg);
    SinkEndpoint n(eq);
    l.connect(&sw, &n);
    sw.setDefaultRoute(&l);

    sw.deliver(makePacket(64, 0, 9));
    eq.run();
    ASSERT_EQ(n.got.size(), 1u);
    EXPECT_EQ(n.got[0].second,
              nsToTicks(100) + l.frameTicks(64) + cfg.propagation +
                  cfg.macLatency);
}

TEST(Switch, NoRouteDropsAndCounts)
{
    EventQueue eq;
    Switch sw(eq, "sw", 0);
    // Unknown destination with no default route: the frame is
    // dropped and counted, not a simulator abort.
    sw.deliver(makePacket(64, 0, 5));
    sw.deliver(makePacket(64, 0, 6));
    eq.run();
    EXPECT_EQ(sw.dropsNoRoute(), 2u);
    EXPECT_EQ(sw.framesForwarded(), 0u);
}

TEST(Switch, DefaultRouteCatchesUnknownDestinations)
{
    EventQueue eq;
    EthConfig cfg;
    Switch sw(eq, "sw", cfg.switchLatency);
    EthLink def(eq, "def", cfg), known(eq, "known", cfg);
    SinkEndpoint nd(eq), nk(eq);
    def.connect(&sw, &nd);
    known.connect(&sw, &nk);
    sw.addRoute(1, &known);
    sw.setDefaultRoute(&def);

    sw.deliver(makePacket(128, 0, 1)); // routed
    sw.deliver(makePacket(128, 0, 9)); // unknown -> default
    eq.run();
    EXPECT_EQ(nk.got.size(), 1u);
    EXPECT_EQ(nd.got.size(), 1u);
    EXPECT_EQ(sw.dropsNoRoute(), 0u);
}

TEST(Switch, FiniteEgressQueueTailDrops)
{
    EventQueue eq;
    EthConfig cfg;
    // Queue of 4 frames, no ECN; zero port latency so all ten frames
    // contend for the egress at the same tick.
    Switch sw(eq, "sw", 0, /*queue_frames=*/4, /*ecn_threshold=*/0);
    EthLink l(eq, "l", cfg);
    SinkEndpoint n(eq);
    l.connect(&sw, &n);
    sw.setDefaultRoute(&l);

    for (int i = 0; i < 10; ++i)
        sw.deliver(makePacket(1460, 0, 1));
    eq.run();

    EXPECT_EQ(n.got.size(), 4u);
    EXPECT_EQ(sw.dropsQueue(), 6u);
    EXPECT_EQ(sw.framesForwarded(), 4u);
    EXPECT_EQ(sw.maxQueueDepth(), 4u);
    // Accepted frames drain at the link's serialization rate.
    ASSERT_EQ(n.got.size(), 4u);
    EXPECT_EQ(n.got[1].second - n.got[0].second,
              l.frameTicks(1460));
}

TEST(Switch, EcnMarksAboveThreshold)
{
    EventQueue eq;
    EthConfig cfg;
    Switch sw(eq, "sw", 0, /*queue_frames=*/8, /*ecn_threshold=*/2);
    EthLink l(eq, "l", cfg);
    SinkEndpoint n(eq);
    l.connect(&sw, &n);
    sw.setDefaultRoute(&l);

    for (int i = 0; i < 6; ++i)
        sw.deliver(makePacket(1460, 0, 1));
    eq.run();

    // Frames enqueued at occupancy 0 and 1 pass unmarked; occupancy
    // 2..5 is at/above the threshold.
    ASSERT_EQ(n.got.size(), 6u);
    EXPECT_EQ(sw.ecnMarks(), 4u);
    EXPECT_FALSE(n.got[0].first->ecnMarked);
    EXPECT_FALSE(n.got[1].first->ecnMarked);
    for (std::size_t i = 2; i < 6; ++i)
        EXPECT_TRUE(n.got[i].first->ecnMarked) << "frame " << i;
    EXPECT_EQ(sw.dropsQueue(), 0u);
}

TEST(Switch, UnboundedQueueNeverDrops)
{
    EventQueue eq;
    EthConfig cfg;
    Switch sw(eq, "sw", 0, /*queue_frames=*/0, /*ecn_threshold=*/0);
    EthLink l(eq, "l", cfg);
    SinkEndpoint n(eq);
    l.connect(&sw, &n);
    sw.setDefaultRoute(&l);
    for (int i = 0; i < 200; ++i)
        sw.deliver(makePacket(1460, 0, 1));
    eq.run();
    EXPECT_EQ(n.got.size(), 200u);
    EXPECT_EQ(sw.dropsQueue(), 0u);
    EXPECT_EQ(sw.ecnMarks(), 0u);
}

TEST(RouteTable, ResolvesHitsMissesAndTheDefault)
{
    RouteTable<int> t;
    t.add(3, 30);
    ASSERT_NE(t.resolve(3), nullptr);
    EXPECT_EQ(*t.resolve(3), 30);
    // Below the highest installed id, and past the end of the table.
    EXPECT_EQ(t.resolve(2), nullptr);
    EXPECT_EQ(t.resolve(1000), nullptr);
    EXPECT_EQ(t.size(), 1u);

    t.setDefault(7);
    ASSERT_NE(t.resolve(2), nullptr);
    EXPECT_EQ(*t.resolve(2), 7);
    EXPECT_EQ(*t.resolve(1000), 7);
    EXPECT_EQ(*t.resolve(3), 30);
    EXPECT_EQ(t.size(), 1u); // the default is not an explicit route
}

TEST(RouteTable, SecondAddForANodeReplacesTheFirst)
{
    RouteTable<int> t;
    t.add(5, 1);
    t.add(5, 2);
    ASSERT_NE(t.resolve(5), nullptr);
    EXPECT_EQ(*t.resolve(5), 2);
    EXPECT_EQ(t.size(), 1u);
}

TEST(RouteTable, ForEachVisitsRoutesInAscendingNodeOrder)
{
    RouteTable<int> t;
    t.add(9, 90);
    t.add(1, 10);
    t.add(5, 50);
    t.setDefault(-1);
    std::vector<std::pair<std::uint32_t, int>> seen;
    t.forEach([&](std::uint32_t n, int e) { seen.emplace_back(n, e); });
    EXPECT_EQ(seen, (std::vector<std::pair<std::uint32_t, int>>{
                        {1, 10}, {5, 50}, {9, 90}}));
}

TEST(Switch, FreshPortSeesBackgroundDepthForEcnAndTailDrop)
{
    EventQueue eq;
    EthConfig cfg;
    Switch sw(eq, "sw", 0, /*queue_frames=*/4, /*ecn_threshold=*/2);
    EthLink l(eq, "l", cfg);
    SinkEndpoint n(eq);
    l.connect(&sw, &n);
    sw.addRoute(1, &l);
    // The port exists since route install but has never queued a
    // frame; three fluid frames already wait ahead of it.
    FixedBacklog bg(3);
    sw.setBackgroundSource(&l, &bg);
    EXPECT_EQ(sw.queueDepth(&l), 0u);

    // Depth 3: accepted and marked. Depth 3 + the frame on the
    // transmitter = 4: tail-dropped.
    sw.deliver(makePacket(1460, 0, 1));
    sw.deliver(makePacket(1460, 0, 1));
    eq.run();
    ASSERT_EQ(n.got.size(), 1u);
    EXPECT_TRUE(n.got[0].first->ecnMarked);
    EXPECT_EQ(sw.ecnMarks(), 1u);
    EXPECT_EQ(sw.dropsQueue(), 1u);
    EXPECT_EQ(sw.maxQueueDepth(), 4u);
}

TEST(Switch, FreshPortWithoutBackgroundStartsEmpty)
{
    EventQueue eq;
    EthConfig cfg;
    Switch sw(eq, "sw", 0, /*queue_frames=*/1, /*ecn_threshold=*/1);
    EthLink l(eq, "l", cfg);
    SinkEndpoint n(eq);
    l.connect(&sw, &n);
    sw.addRoute(1, &l);

    // Depth 0 on a never-used port: below both thresholds of 1.
    sw.deliver(makePacket(1460, 0, 1));
    eq.run();
    ASSERT_EQ(n.got.size(), 1u);
    EXPECT_FALSE(n.got[0].first->ecnMarked);
    EXPECT_EQ(sw.dropsQueue(), 0u);
    EXPECT_EQ(sw.maxQueueDepth(), 1u);
}

TEST(Switch, NullBackgroundSourceDetaches)
{
    EventQueue eq;
    EthConfig cfg;
    Switch sw(eq, "sw", 0, /*queue_frames=*/4, /*ecn_threshold=*/2);
    EthLink l(eq, "l", cfg);
    SinkEndpoint n(eq);
    l.connect(&sw, &n);
    sw.addRoute(1, &l);
    FixedBacklog bg(100);
    sw.setBackgroundSource(&l, &bg);
    sw.setBackgroundSource(&l, nullptr);

    sw.deliver(makePacket(1460, 0, 1));
    eq.run();
    ASSERT_EQ(n.got.size(), 1u);
    EXPECT_FALSE(n.got[0].first->ecnMarked);
    EXPECT_EQ(sw.dropsQueue(), 0u);
}

TEST(Locality, HopCountsAreMonotonic)
{
    EXPECT_EQ(localityHops(TrafficLocality::IntraRack), 1u);
    EXPECT_EQ(localityHops(TrafficLocality::IntraCluster), 3u);
    EXPECT_EQ(localityHops(TrafficLocality::IntraDatacenter), 5u);
    EXPECT_EQ(localityHops(TrafficLocality::InterDatacenter), 7u);
    EXPECT_LT(localityPropagation(TrafficLocality::IntraRack),
              localityPropagation(TrafficLocality::InterDatacenter));
}

TEST(ClosFabric, PathDelayScalesWithHopsAndSwitchLatency)
{
    EventQueue eq;
    EthConfig cfg;
    ClosFabric fab(eq, "fab", cfg);
    Tick rack = fab.pathDelay(256, TrafficLocality::IntraRack);
    Tick cluster = fab.pathDelay(256, TrafficLocality::IntraCluster);
    Tick dc = fab.pathDelay(256, TrafficLocality::IntraDatacenter);
    EXPECT_LT(rack, cluster);
    EXPECT_LT(cluster, dc);

    EthConfig slow = cfg;
    slow.switchLatency = nsToTicks(200);
    ClosFabric fab2(eq, "fab2", slow);
    EXPECT_EQ(fab2.pathDelay(256, TrafficLocality::IntraCluster),
              cluster + 3 * nsToTicks(100));
}

TEST(ClosFabric, ForwardsToAttachedEndpoint)
{
    EventQueue eq;
    EthConfig cfg;
    ClosFabric fab(eq, "fab", cfg);
    SinkEndpoint n(eq);
    fab.attach(3, &n);

    PacketPtr pkt = makePacket(512, 0, 3);
    fab.forward(pkt, TrafficLocality::IntraCluster);
    eq.run();
    ASSERT_EQ(n.got.size(), 1u);
    EXPECT_EQ(n.got[0].second,
              fab.pathDelay(512, TrafficLocality::IntraCluster));
    EXPECT_EQ(pkt->lat.get(LatComp::Wire), n.got[0].second);
}

TEST(ClosFabric, DeliverUsesDefaultLocality)
{
    EventQueue eq;
    EthConfig cfg;
    ClosFabric fab(eq, "fab", cfg);
    SinkEndpoint n(eq);
    fab.attach(1, &n);
    // An unstamped packet crosses the fabric as intra-cluster
    // traffic; a stamped one at its own locality.
    fab.deliver(makePacket(64, 0, 1));
    eq.run();
    ASSERT_EQ(n.got.size(), 1u);
    EXPECT_EQ(n.got[0].second,
              fab.pathDelay(64, TrafficLocality::IntraCluster));
    Tick t0 = eq.curTick();
    PacketPtr rack = makePacket(64, 0, 1);
    rack->locality = TrafficLocality::IntraRack;
    fab.deliver(rack);
    eq.run();
    ASSERT_EQ(n.got.size(), 2u);
    EXPECT_EQ(n.got[1].second - t0,
              fab.pathDelay(64, TrafficLocality::IntraRack));
}
