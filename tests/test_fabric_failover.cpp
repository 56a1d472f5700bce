/**
 * @file
 * Tests for fabric failover: link up/down state with in-flight frame
 * drops, live-set ECMP rerouting (member exclusion at the link-down
 * notification), whole-spine failure and recovery, fabric health
 * reporting, fault-ledger booking of flap schedules, and an
 * end-to-end reliable flow that survives a spine dying mid-transfer
 * without waiting for a retransmission timeout.
 */

#include <gtest/gtest.h>

#include <memory>

#include "net/Routing.hh"
#include "net/Topology.hh"
#include "workload/IperfFlow.hh"

using namespace netdimm;

namespace
{

struct QuietScope
{
    QuietScope() { setQuiet(true); }
    ~QuietScope() { setQuiet(false); }
};

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

/** One pod of two racks under two spines, @p per_leaf nodes per rack:
 *  node n sits on leaf n / per_leaf. */
PodFabricSpec
twoRacks(std::uint32_t per_leaf, const EthConfig &eth = EthConfig{})
{
    return PodFabricSpec{.pods = 1,
                         .leavesPerPod = 2,
                         .spines = 2,
                         .nodesPerLeaf = per_leaf,
                         .eth = eth};
}

} // namespace

// ---------------------------------------------------------------------
// Link up/down state
// ---------------------------------------------------------------------

TEST(LinkState, SendWhileDownIsDroppedAndCounted)
{
    EventQueue eq;
    EthConfig cfg;
    EthLink link(eq, "wire", cfg);
    SinkEndpoint a(eq), b(eq);
    link.connect(&a, &b);

    link.setLinkState(false);
    EXPECT_FALSE(link.up());
    link.send(&a, makePacket(200, 0, 1));
    eq.run();
    EXPECT_TRUE(b.got.empty());
    EXPECT_EQ(link.framesDroppedLinkDown(), 1u);
    EXPECT_EQ(link.downEvents(), 1u);

    link.setLinkState(true);
    link.send(&a, makePacket(200, 0, 1));
    eq.run();
    EXPECT_EQ(b.got.size(), 1u);
    EXPECT_EQ(link.framesCarried(), 1u);
}

TEST(LinkState, InFlightFramesDieWithTheLink)
{
    EventQueue eq;
    EthConfig cfg;
    EthLink link(eq, "wire", cfg);
    SinkEndpoint a(eq), b(eq);
    link.connect(&a, &b);

    // The frame needs serialization + propagation + MAC time; kill
    // the link one tick after the send, long before arrival.
    link.send(&a, makePacket(1460, 0, 1));
    eq.schedule(1, [&] { link.setLinkState(false); });
    eq.run();
    EXPECT_TRUE(b.got.empty());
    EXPECT_EQ(link.framesDroppedLinkDown(), 1u);

    // Frames sent after recovery belong to the new epoch and deliver.
    link.setLinkState(true);
    link.send(&a, makePacket(1460, 0, 1));
    eq.run();
    EXPECT_EQ(b.got.size(), 1u);
}

TEST(LinkState, ListenersSeeOnlyActualTransitions)
{
    EventQueue eq;
    EthConfig cfg;
    EthLink link(eq, "wire", cfg);
    std::vector<bool> edges;
    link.addStateListener(
        [&](EthLink &, bool up) { edges.push_back(up); });

    link.setLinkState(false);
    link.setLinkState(false); // idempotent: no second callback
    link.setLinkState(true);
    link.setLinkState(true);
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_FALSE(edges[0]);
    EXPECT_TRUE(edges[1]);
    EXPECT_EQ(link.downEvents(), 1u);
}

TEST(LinkState, ScheduledFlapTakesTheLinkDownAndBack)
{
    EventQueue eq;
    EthConfig cfg;
    EthLink link(eq, "wire", cfg);
    link.scheduleFlap(1000, 500);

    bool down_seen = false, up_seen = false;
    // Flap edges run at Maintenance priority, so Default-priority
    // probes at the same tick observe the new state.
    eq.schedule(1000, [&] { down_seen = !link.up(); });
    eq.schedule(1500, [&] { up_seen = link.up(); });
    eq.run();
    EXPECT_TRUE(down_seen);
    EXPECT_TRUE(up_seen);
    EXPECT_TRUE(link.up());
    EXPECT_EQ(link.downEvents(), 1u);
}

// ---------------------------------------------------------------------
// ECMP live-set rerouting
// ---------------------------------------------------------------------

TEST(FabricFailover, DeadMemberIsExcludedAtNotificationTime)
{
    EventQueue eq;
    EthConfig cfg;
    PodFabricShard topo(eq, "fab", twoRacks(1, cfg));
    SinkEndpoint a(eq), b(eq);
    EthLink &la = topo.attach(0, &a);
    topo.attach(1, &b);

    // Baseline: 32 flows spread over both spines.
    for (int f = 0; f < 32; ++f) {
        PacketPtr pkt = makePacket(200, 0, 1);
        pkt->flowId = std::uint64_t(f);
        la.send(&a, pkt);
    }
    eq.run();
    ASSERT_EQ(b.got.size(), 32u);
    ASSERT_GT(topo.spine(0).framesForwarded(), 0u);
    std::uint64_t spine0_before = topo.spine(0).framesForwarded();

    // Kill leaf 0's uplink to spine 0: the leaf's ECMP group loses
    // the member immediately, so every subsequent flow -- including
    // the ones that used to hash onto spine 0 -- rides spine 1.
    topo.failLink(0, 0);
    EXPECT_EQ(topo.leaf(0).liveMembers(1), 1u);
    for (int f = 0; f < 32; ++f) {
        PacketPtr pkt = makePacket(200, 0, 1);
        pkt->flowId = std::uint64_t(f);
        la.send(&a, pkt);
    }
    eq.run();
    EXPECT_EQ(b.got.size(), 64u);
    EXPECT_EQ(topo.spine(0).framesForwarded(), spine0_before);
    EXPECT_EQ(topo.dropsNoPath(), 0u);
    EXPECT_FALSE(topo.degraded());

    // Recovery restores the member; the original split returns.
    topo.recoverLink(0, 0);
    EXPECT_EQ(topo.leaf(0).liveMembers(1), 2u);
    for (int f = 0; f < 32; ++f) {
        PacketPtr pkt = makePacket(200, 0, 1);
        pkt->flowId = std::uint64_t(f);
        la.send(&a, pkt);
    }
    eq.run();
    EXPECT_EQ(b.got.size(), 96u);
    EXPECT_EQ(topo.spine(0).framesForwarded(), 2 * spine0_before);
}

TEST(FabricFailover, FarLegDeathWithdrawsTheSpineFromRemoteLeaves)
{
    EventQueue eq;
    EthConfig cfg;
    PodFabricShard topo(eq, "fab", twoRacks(1, cfg));
    SinkEndpoint a(eq), b(eq);
    EthLink &la = topo.attach(0, &a);
    topo.attach(1, &b);

    // Spine 0 loses its leg to leaf 1. Leaf 0's own uplink to spine 0
    // is still up, but the route install withdraws spine 0 from leaf
    // 0's group toward node 1, so no flow hashes into the dead end.
    topo.failLink(1, 0);
    EXPECT_EQ(topo.leaf(0).liveMembers(1), 1u);
    EXPECT_EQ(topo.leaf(1).liveMembers(0), 1u);
    for (int f = 0; f < 32; ++f) {
        PacketPtr pkt = makePacket(200, 0, 1);
        pkt->flowId = std::uint64_t(f);
        la.send(&a, pkt);
    }
    eq.run();
    EXPECT_EQ(b.got.size(), 32u);
    EXPECT_EQ(topo.spine(0).framesForwarded(), 0u);
    EXPECT_EQ(topo.dropsNoPath(), 0u);

    // Recovery re-advertises the spine.
    topo.recoverLink(1, 0);
    EXPECT_EQ(topo.leaf(0).liveMembers(1), 2u);
    EXPECT_EQ(topo.leaf(1).liveMembers(0), 2u);
}

TEST(FabricFailover, AllMembersDownCountsNoPathAndDegrades)
{
    QuietScope q;
    EventQueue eq;
    EthConfig cfg;
    PodFabricShard topo(eq, "fab", twoRacks(1, cfg));
    SinkEndpoint a(eq), b(eq);
    EthLink &la = topo.attach(0, &a);
    topo.attach(1, &b);

    topo.failLink(0, 0);
    topo.failLink(0, 1);
    EXPECT_TRUE(topo.degraded());
    EXPECT_EQ(topo.leaf(0).liveMembers(1), 0u);

    la.send(&a, makePacket(200, 0, 1));
    eq.run();
    EXPECT_TRUE(b.got.empty());
    EXPECT_EQ(topo.leaf(0).dropsNoPath(), 1u);
    EXPECT_EQ(topo.dropsNoPath(), 1u);

    topo.recoverLink(0, 1);
    EXPECT_FALSE(topo.degraded());
    la.send(&a, makePacket(200, 0, 1));
    eq.run();
    EXPECT_EQ(b.got.size(), 1u);
}

TEST(FabricFailover, SelectionAgreesWithTheExportedFlowHash)
{
    EventQueue eq;
    EthConfig cfg;
    PodFabricShard topo(eq, "fab", twoRacks(1, cfg));
    SinkEndpoint a(eq), b(eq);
    EthLink &la = topo.attach(0, &a);
    topo.attach(1, &b);

    // With both members live, packet (src 0, dst 1, flow f) must use
    // the spine the exported hash names -- the invariant that keeps
    // selection a pure function of packet fields.
    for (std::uint64_t f = 0; f < 16; ++f) {
        std::uint64_t before[2] = {topo.spine(0).framesForwarded(),
                                   topo.spine(1).framesForwarded()};
        PacketPtr pkt = makePacket(200, 0, 1);
        pkt->flowId = f;
        la.send(&a, pkt);
        eq.run();
        std::size_t want = std::size_t(ecmpFlowHash(0, 1, f) % 2);
        EXPECT_EQ(topo.spine(want).framesForwarded(), before[want] + 1)
            << "flow " << f;
    }
}

TEST(FabricFailover, QueuedFramesFlushWhenTheirLinkDies)
{
    QuietScope q;
    EventQueue eq;
    EthConfig cfg;
    cfg.gbps = 1.0; // slow wire so a burst queues at the uplink port
    PodFabricShard topo(eq, "fab", twoRacks(1, cfg));
    SinkEndpoint a(eq), b(eq);
    EthLink &la = topo.attach(0, &a);
    topo.attach(1, &b);

    // One flow pins the whole burst to one spine; compute which from
    // the exported hash, then kill that uplink mid-burst.
    const std::uint64_t flow = 5;
    std::uint32_t s = std::uint32_t(ecmpFlowHash(0, 1, flow) % 2);
    for (int i = 0; i < 16; ++i) {
        PacketPtr pkt = makePacket(1460, 0, 1);
        pkt->flowId = flow;
        la.send(&a, pkt);
    }
    eq.schedule(usToTicks(30), [&] { topo.failLink(0, s); });
    eq.run();
    EXPECT_LT(b.got.size(), 16u);
    // Losses are booked against link-down (flushed egress queue, dead
    // in flight, or sent into the dead link) -- not silent.
    EXPECT_GT(topo.dropsLinkDown(), 0u);
    EXPECT_EQ(b.got.size() + topo.dropsLinkDown() + topo.dropsNoPath(),
              16u);
}

TEST(FabricFailover, SharedMemberDeathReachesEveryDestinationBehindIt)
{
    EventQueue eq;
    EthConfig cfg;
    // Node 0 on leaf 0, the sixteen nodes 16..31 on leaf 1.
    PodFabricShard topo(eq, "fab", twoRacks(16, cfg));
    std::vector<std::unique_ptr<SinkEndpoint>> sinks;
    auto attach = [&](std::uint32_t n) {
        sinks.push_back(std::make_unique<SinkEndpoint>(eq));
        topo.attach(n, sinks.back().get());
    };
    attach(0);
    for (std::uint32_t n = 16; n < 32; ++n)
        attach(n);

    // Leaf 0 reaches nodes 16..31 through the same two uplinks: one
    // member dying must show on every one of those routes at once.
    topo.failLink(0, 0);
    for (std::uint32_t n = 16; n < 32; ++n)
        EXPECT_EQ(topo.leaf(0).liveMembers(n), 1u) << "node " << n;
    topo.recoverLink(0, 0);
    for (std::uint32_t n = 16; n < 32; ++n)
        EXPECT_EQ(topo.leaf(0).liveMembers(n), 2u) << "node " << n;
}

// ---------------------------------------------------------------------
// Fabric health and whole-spine failure
// ---------------------------------------------------------------------

TEST(FabricHealthReport, TracksLiveLinksBisectionAndDegradation)
{
    EventQueue eq;
    EthConfig cfg;
    PodFabricShard topo(eq, "fab", twoRacks(1, cfg));
    SinkEndpoint a(eq), b(eq);
    topo.attach(0, &a);
    topo.attach(1, &b);

    FabricHealth h = topo.health();
    EXPECT_EQ(h.totalUplinks, 4u);
    EXPECT_EQ(h.liveUplinks, 4u);
    EXPECT_DOUBLE_EQ(h.bisectionGbps, 4.0 * cfg.gbps);
    EXPECT_EQ(h.degradedGroups, 0u);
    EXPECT_TRUE(h.fullyConnected());

    topo.failLink(0, 1);
    h = topo.health();
    EXPECT_EQ(h.liveUplinks, 3u);
    EXPECT_DOUBLE_EQ(h.bisectionGbps, 3.0 * cfg.gbps);
    EXPECT_TRUE(h.fullyConnected()); // spine 0 still reaches leaf 1

    // Spine 0 dying too leaves leaf 0 with no live uplink at all.
    topo.failSpine(0);
    h = topo.health();
    EXPECT_EQ(h.liveUplinks, 1u);
    EXPECT_DOUBLE_EQ(h.bisectionGbps, 1.0 * cfg.gbps);
    EXPECT_FALSE(h.fullyConnected());
    EXPECT_TRUE(topo.degraded());

    topo.recoverSpine(0);
    topo.recoverLink(0, 1);
    h = topo.health();
    EXPECT_EQ(h.liveUplinks, 4u);
    EXPECT_TRUE(h.fullyConnected());
    EXPECT_FALSE(topo.degraded());
}

TEST(FabricHealthReport, GroupCountsArePerInstalledRoute)
{
    EventQueue eq;
    EthConfig cfg;
    // Node 0 on leaf 0, the four nodes 4..7 on leaf 1.
    PodFabricShard topo(eq, "fab", twoRacks(4, cfg));
    std::vector<std::unique_ptr<SinkEndpoint>> sinks;
    for (std::uint32_t n : {0u, 4u, 5u, 6u, 7u}) {
        sinks.push_back(std::make_unique<SinkEndpoint>(eq));
        topo.attach(n, sinks.back().get());
    }
    // Local routes exist per attached node, cross-rack routes per
    // node in the spec. Leaf 0: one local route + four cross-rack
    // routes; leaf 1: four local routes + four cross-rack routes
    // (nodes 0..3, attached or not).
    FabricHealth h = topo.health();
    EXPECT_EQ(h.totalGroups, 13u);
    EXPECT_EQ(h.degradedGroups, 0u);

    // With every spine down each cross-rack route is withdrawn. The
    // withdrawn routes count one by one, however the switch stores
    // them: four on leaf 0, four on leaf 1.
    topo.failSpine(0);
    topo.failSpine(1);
    h = topo.health();
    EXPECT_EQ(h.totalGroups, 13u);
    EXPECT_EQ(h.degradedGroups, 8u);
    EXPECT_EQ(topo.leaf(0).degradedGroups(), 4u);

    topo.recoverSpine(0);
    topo.recoverSpine(1);
    h = topo.health();
    EXPECT_EQ(h.totalGroups, 13u);
    EXPECT_EQ(h.degradedGroups, 0u);
}

TEST(FabricFaults, FlapSchedulesCloseTheRegistryLedger)
{
    EventQueue eq;
    EthConfig cfg;
    PodFabricShard topo(eq, "fab", twoRacks(1, cfg));
    SinkEndpoint a(eq), b(eq);
    topo.attach(0, &a);
    topo.attach(1, &b);

    FaultRegistry reg(42);
    topo.attachFaultDomains(reg);
    topo.scheduleLinkFlap(0, 0, usToTicks(10), usToTicks(5));
    topo.scheduleLinkFlap(1, 1, usToTicks(20), usToTicks(5));
    topo.scheduleLinkFlap(0, 0, usToTicks(40), usToTicks(2));
    eq.run();

    EXPECT_EQ(reg.injected(), 3u);
    EXPECT_EQ(reg.recovered(), 3u);
    EXPECT_TRUE(reg.ledgerClosed());
    const FaultDomain *d = reg.find(topo.uplink(0, 0).name());
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->injected(), 2u);
    EXPECT_TRUE(topo.health().fullyConnected());
}

// ---------------------------------------------------------------------
// End to end: a spine dies under a reliable flow
// ---------------------------------------------------------------------

namespace
{

struct SpineDeathStats
{
    std::uint64_t delivered = 0;
    std::uint64_t enqueued = 0;
    std::uint64_t retx = 0;
    std::uint64_t timeouts = 0;
    std::uint32_t aborted = 0;
    std::uint64_t dropsLinkDown = 0;
    std::uint64_t downEvents = 0;
    Tick endTick = 0;

    bool
    operator==(const SpineDeathStats &o) const
    {
        return delivered == o.delivered && enqueued == o.enqueued &&
               retx == o.retx && timeouts == o.timeouts &&
               aborted == o.aborted &&
               dropsLinkDown == o.dropsLinkDown &&
               downEvents == o.downEvents && endTick == o.endTick;
    }
};

SpineDeathStats
runSpineDeath(std::uint64_t seed)
{
    SystemConfig sys;
    sys.nic = NicKind::NetDimm;
    sys.seed = seed;
    EventQueue eq;
    Node a(eq, "a", sys, 0);
    Node b(eq, "b", sys, 1);
    PodFabricShard topo(eq, "fab", twoRacks(1, sys.eth));
    a.connectTo(topo.attach(0, a.endpoint()));
    b.connectTo(topo.attach(1, b.endpoint()));

    IperfFlow flow(eq, "iperf", a, b, 1460, 16, 4);
    flow.enableReliable(sys.transport);
    flow.start();

    // Spine 0 dies mid-transfer and stays dead: segments and ACKs in
    // flight on its uplinks are lost, and every stream that hashed to
    // it must re-route through spine 1.
    eq.schedule(usToTicks(200), [&] { topo.failSpine(0); });
    eq.run(usToTicks(1200));
    flow.stop();
    eq.run();

    SpineDeathStats r;
    r.delivered = flow.deliveredBytes();
    r.enqueued = flow.enqueuedBytes();
    r.retx = flow.retransmissions();
    r.timeouts = flow.timeouts();
    r.aborted = flow.abortedFlows();
    r.dropsLinkDown = topo.dropsLinkDown();
    for (std::uint32_t l = 0; l < topo.spec().totalLeaves(); ++l)
        r.downEvents += topo.uplink(l, 0).downEvents();
    r.endTick = eq.curTick();
    return r;
}

} // namespace

TEST(FabricEndToEnd, ReliableFlowSurvivesSpineDeathWithoutRto)
{
    QuietScope q;
    SpineDeathStats r = runSpineDeath(7);

    // The failure was real: both of spine 0's uplinks went down and
    // frames died with them.
    EXPECT_EQ(r.downEvents, 2u);
    EXPECT_GT(r.dropsLinkDown, 0u);
    EXPECT_GT(r.retx, 0u);

    // ...and yet the flow delivered every byte it enqueued, with no
    // stream aborting. Zero RTO firings proves failover engaged
    // through the link-down exclusion (dup-ACK fast retransmit on the
    // surviving path), not through timeout expiry.
    EXPECT_GT(r.enqueued, 0u);
    EXPECT_EQ(r.delivered, r.enqueued);
    EXPECT_EQ(r.aborted, 0u);
    EXPECT_EQ(r.timeouts, 0u);
}

TEST(FabricEndToEnd, SpineDeathReplayIsExactlyEqual)
{
    QuietScope q;
    SpineDeathStats x = runSpineDeath(11);
    SpineDeathStats y = runSpineDeath(11);
    EXPECT_TRUE(x == y);
    EXPECT_EQ(x.delivered, x.enqueued);
}
