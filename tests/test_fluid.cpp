/**
 * @file
 * Unit tests for the fluid flow model (DESIGN.md §17): exact
 * piecewise-linear backlog integration, the solver's rate ledger
 * against closed-form expectations, saturation fixed point,
 * packet<->fluid handoff conservation, fidelity classification, and
 * the idle-background byte-identity guarantee.
 */

#include <gtest/gtest.h>

#include "flow/FidelityManager.hh"
#include "net/Switch.hh"

using namespace netdimm;

namespace
{

/** 40 Gbps in wire bytes per tick (1 tick = 1 ps). */
constexpr double kCapBps = 40.0 / 8000.0;

EthConfig
testEth(std::uint32_t queue_frames, std::uint32_t ecn_frames)
{
    EthConfig eth;
    eth.switchQueueFrames = queue_frames;
    eth.ecnThresholdFrames = ecn_frames;
    return eth;
}

} // namespace

// -- FluidLink: exact integration ---------------------------------------

TEST(FluidLink, SubCapacityArrivalsPassThroughWithZeroBacklog)
{
    FluidLink l("l", testEth(0, 0), 1460);
    l.setFluidArrivalGbps(20.0);
    l.advanceTo(1000000); // 1 us
    // 20 Gbps for 1 us = 2500 wire bytes, all delivered in-window.
    EXPECT_DOUBLE_EQ(l.arrivedWireBytes(), 2500.0);
    EXPECT_DOUBLE_EQ(l.deliveredWireBytes(), 2500.0);
    EXPECT_DOUBLE_EQ(l.backlogWireBytes(), 0.0);
    EXPECT_DOUBLE_EQ(l.deliveredShare(), 1.0);
    EXPECT_DOUBLE_EQ(l.droppedShare(), 0.0);
}

TEST(FluidLink, OverCapacityArrivalsAccumulateExactBacklog)
{
    FluidLink l("l", testEth(0, 0), 1460);
    l.setFluidArrivalGbps(60.0);
    l.advanceTo(1000000);
    // Net (60-40) Gbps for 1 us = 2500 wire bytes of backlog; the
    // transmitter is busy the whole window: 40 Gbps * 1 us = 5000.
    EXPECT_DOUBLE_EQ(l.arrivedWireBytes(), 7500.0);
    EXPECT_DOUBLE_EQ(l.deliveredWireBytes(), 5000.0);
    EXPECT_DOUBLE_EQ(l.backlogWireBytes(), 2500.0);
}

TEST(FluidLink, DrainSplitsAtTheZeroCrossing)
{
    FluidLink l("l", testEth(0, 0), 1460);
    l.setFluidArrivalGbps(60.0);
    l.advanceTo(1000000); // leaves 2500 B of backlog
    l.setFluidArrivalGbps(0.0);
    l.advanceTo(2000000);
    // 2500 B drain at 40 Gbps in exactly 500000 ticks, then idle:
    // the window delivers only the leftover backlog.
    EXPECT_DOUBLE_EQ(l.backlogWireBytes(), 0.0);
    EXPECT_DOUBLE_EQ(l.deliveredWireBytes(), 7500.0);
    EXPECT_DOUBLE_EQ(l.deliveredShare(), 1.0);
}

TEST(FluidLink, CapCrossingTailDropsTheExcess)
{
    // Cap = 2 reference frames = 2 * 1484 = 2968 wire bytes.
    FluidLink l("l", testEth(2, 0), 1460);
    l.setFluidArrivalGbps(80.0);
    l.advanceTo(1000000);
    // Net +40 Gbps fills the cap at t = 2968/0.005 = 593600 ticks;
    // everything arriving above capacity after that drops.
    EXPECT_DOUBLE_EQ(l.backlogWireBytes(), 2968.0);
    EXPECT_DOUBLE_EQ(l.droppedWireBytes(), 0.005 * (1000000 - 593600));
    EXPECT_DOUBLE_EQ(l.arrivedWireBytes(), 10000.0);
    // Conservation: arrived == delivered + dropped + backlog.
    EXPECT_DOUBLE_EQ(l.deliveredWireBytes() + l.droppedWireBytes() +
                         l.backlogWireBytes(),
                     l.arrivedWireBytes());
}

TEST(FluidLink, EcnThresholdComparesFrameGranularBacklog)
{
    FluidLink l("l", testEth(0, 2), 1460);
    l.setFluidArrivalGbps(60.0);
    l.advanceTo(1000000); // backlog 2500 B < 2 frames (2968 B)
    EXPECT_FALSE(l.congested());
    l.advanceTo(2000000); // backlog 5000 B >= 2968 B
    EXPECT_TRUE(l.congested());
    // The lagged view: at the first round boundary the link was not
    // yet past the threshold.
    EXPECT_FALSE(l.congestedAt(1000000));
    EXPECT_TRUE(l.congestedAt(2000000));
}

// -- FluidSolver: ledger vs closed form ---------------------------------

TEST(FluidSolver, UncongestedFlowDeliversAtExactlyItsRate)
{
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0); // default 55 us rounds
    FluidLink &l = solver.addLink("l", testEth(0, 0), 1460);

    TransportConfig cfg;
    cfg.lineRateGbps = 10.0; // well under the 40 Gbps link
    std::uint64_t total = 125000; // = 100 us at 10 Gbps
    bool done = false;
    Tick doneTick = 0;
    FluidFlow &f = solver.addFlow(1, cfg, {&l}, total);
    f.onComplete = [&](const FluidFlow &ff) {
        done = true;
        doneTick = ff.doneTick;
    };

    solver.start(usToTicks(1000));
    eq.run();

    // No congestion anywhere: the ledger advances by rate * dt per
    // round, so completion lands on the first round boundary at or
    // after the closed-form finish time (100 us -> round at 110 us).
    EXPECT_TRUE(done);
    EXPECT_EQ(doneTick, 2 * TransportConfig{}.rateIncreaseInterval);
    EXPECT_DOUBLE_EQ(solver.totalDeliveredBytes(), double(total));
    EXPECT_DOUBLE_EQ(l.backlogWireBytes(), 0.0);
    EXPECT_EQ(solver.rateCuts(), 0u);
}

TEST(FluidSolver, OversubscribedSharesAreProportionalAndExact)
{
    // Open-loop fixed point (no ECN, no cap): two constant-rate
    // flows jointly oversubscribe the link, so the solver's share
    // accounting must hand each flow a pool-proportional slice and
    // conserve every byte between the ledgers and the link backlog.
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0);
    FluidLink &l = solver.addLink("l", testEth(0, 0), 1460);

    TransportConfig a, b;
    a.lineRateGbps = 30.0;
    b.lineRateGbps = 10.0;
    FluidFlow &fa = solver.addFlow(1, a, {&l}, 0);
    FluidFlow &fb = solver.addFlow(2, b, {&l}, 0);

    Tick horizon = usToTicks(1000);
    solver.start(horizon);
    eq.run();

    // The link is busy from the first instant, so it delivers at
    // exactly capacity; the overflow accumulates as backlog.
    double capacityBytes = kCapBps * double(horizon);
    double arrWire = 40.0 * l.wireFactor() / 8000.0 * double(horizon);
    EXPECT_NEAR(l.deliveredWireBytes(), capacityBytes, 1.0);
    EXPECT_NEAR(l.backlogWireBytes(), arrWire - capacityBytes, 1.0);
    // Shares are proportional to the offered rates, 3:1.
    EXPECT_NEAR(fa.deliveredBytes / fb.deliveredBytes, 3.0, 1e-9);
    // Ledger <-> link conservation (payload vs wire units).
    EXPECT_NEAR((fa.deliveredBytes + fb.deliveredBytes) *
                    l.wireFactor(),
                l.deliveredWireBytes(), 1.0);
    EXPECT_EQ(solver.rateCuts(), 0u);
}

TEST(FluidSolver, EcnFeedbackRegulatesASaturatedLink)
{
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0);
    FluidLink &l = solver.addLink("l", testEth(0, 64), 1460);

    TransportConfig cfg; // 40 Gbps line rate, DCQCN defaults
    // Warm-start at the fair share: the test measures the regulated
    // cycle, not the 4x-line-rate cold-start transient.
    DcqcnState seed;
    seed.init(cfg);
    seed.rateGbps = seed.targetGbps = 10.0;
    seed.alpha = 0.2;
    for (std::uint64_t id = 1; id <= 4; ++id)
        solver.addFlow(id, cfg, {&l}, 0, &seed); // open-ended flows

    Tick horizon = usToTicks(10000);
    solver.start(horizon);
    eq.run();

    // ECN echoes (sampled with the packet domain's feedback lag)
    // must engage and bound the backlog; the cut/drain/recover cycle
    // trades some utilization for the bounded queue, exactly like
    // DCQCN with a handful of synchronized flows does.
    double capacityBytes = kCapBps * double(horizon);
    EXPECT_GT(l.deliveredWireBytes(), 0.70 * capacityBytes);
    EXPECT_LE(l.deliveredWireBytes(), capacityBytes + 1.0);
    EXPECT_GT(solver.rateCuts(), 0u);
    // The regulated backlog ends in the neighbourhood of the ECN
    // threshold instead of growing without bound.
    EXPECT_LT(l.backlogWireBytes(), 20.0 * l.ecnWireBytes());
}

TEST(FluidSolver, TwoHopPathTakesTheTighterShare)
{
    // A fast 40 Gbps hop F that never queues and a slow 10 Gbps hop S
    // with a shallow tail-drop queue. One flow uses F alone, two
    // cross both hops in either order, so S congests the first hop
    // of one path and the second hop of the other.
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0);
    FluidLink &fast = solver.addLink("F", testEth(64, 16), 1460);
    EthConfig slowEth = testEth(32, 8);
    slowEth.gbps = 10.0;
    FluidLink &slow = solver.addLink("S", slowEth, 1460);

    TransportConfig cfg;
    cfg.lineRateGbps = 10.0; // F carries at most 30 Gbps of payload
    FluidFlow &oneHop = solver.addFlow(1, cfg, {&fast}, 4000000);
    FluidFlow &slowLast = solver.addFlow(2, cfg, {&fast, &slow}, 2000000);
    FluidFlow &slowFirst = solver.addFlow(3, cfg, {&slow, &fast}, 2000000);
    std::vector<FluidFlow *> flows = {&oneHop, &slowLast, &slowFirst};

    // The ledger each flow had after the previous round.
    struct Snap
    {
        double rate, offered, delivered, backlog;
    };
    std::vector<Snap> prev;
    for (const FluidFlow *f : flows)
        prev.push_back({f->rateGbps(), f->offeredBytes,
                        f->deliveredBytes, f->backlogBytes});

    const Tick period = solver.period();
    const Tick horizon = 100 * period;
    int tighterRounds = 0, dropRounds = 0;
    // Observe right after every round (Default runs after Fluid).
    std::function<void()> observe = [&] {
        Tick now = eq.curTick();
        for (std::size_t i = 0; i < flows.size(); ++i) {
            FluidFlow &f = *flows[i];
            Snap &p = prev[i];
            double total = double(f.totalBytes);
            EXPECT_DOUBLE_EQ(f.deliveredBytes + f.backlogBytes +
                                 f.unsentBytes(),
                             total)
                << "flow " << f.id << " at " << now;
            if (f.done) {
                EXPECT_EQ(f.deliveredBytes, total);
                continue;
            }
            // Replay the round from the path's link shares.
            double arr = std::min(p.rate / 8000.0 * double(period),
                                  std::max(0.0, total - p.offered));
            double fDel = 1.0, fDrop = 0.0;
            for (const FluidLink *l : f.path) {
                fDel = std::min(fDel, l->deliveredShare());
                fDrop = std::max(fDrop, l->droppedShare());
            }
            fDrop = std::min(fDrop, 1.0 - fDel);
            double pool = p.backlog + arr;
            EXPECT_DOUBLE_EQ(f.deliveredBytes, p.delivered + pool * fDel);
            EXPECT_DOUBLE_EQ(f.offeredBytes,
                             p.offered + arr - pool * fDrop);
            EXPECT_DOUBLE_EQ(f.backlogBytes,
                             pool * (1.0 - fDel - fDrop));
            if (f.path.size() == 2) {
                // The slow hop governs, wherever it sits.
                double slowDel = std::min(1.0, slow.deliveredShare());
                EXPECT_EQ(fDel, slowDel);
                EXPECT_EQ(fDrop,
                          std::min(slow.droppedShare(), 1.0 - slowDel));
                tighterRounds += fDel < fast.deliveredShare();
                dropRounds += fDrop > 0.0;
            }
            p = {f.rateGbps(), f.offeredBytes, f.deliveredBytes,
                 f.backlogBytes};
        }
        if (now + period <= horizon)
            eq.schedule(now + period, [&] { observe(); });
    };
    eq.schedule(period, [&] { observe(); });
    solver.start(horizon);
    eq.run();

    EXPECT_GT(tighterRounds, 0);
    EXPECT_GT(dropRounds, 0);
    EXPECT_GT(slow.droppedWireBytes(), 0.0);
    // F never queued or dropped, so only S can have cut the two-hop
    // flows, one through its first hop and one through its second.
    EXPECT_EQ(fast.maxBacklogWireBytes(), 0.0);
    EXPECT_EQ(fast.droppedWireBytes(), 0.0);
    EXPECT_EQ(oneHop.cc.lastCutTick, 0u);
    EXPECT_GT(slowLast.cc.lastCutTick, 0u);
    EXPECT_GT(slowFirst.cc.lastCutTick, 0u);
    EXPECT_TRUE(oneHop.done);
}

TEST(FluidSolverDeathTest, AddFlowRejectsALinkOfAnotherSolver)
{
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0);
    FluidSolver other(eq, "other", 0);
    FluidLink &own = solver.addLink("own", testEth(0, 0), 1460);
    FluidLink &foreign = other.addLink("foreign", testEth(0, 0), 1460);
    FluidLink loose("loose", testEth(0, 0), 1460);
    TransportConfig cfg;
    EXPECT_DEATH(solver.addFlow(1, cfg, {&own, &foreign}, 0),
                 "did not create");
    EXPECT_DEATH(solver.addFlow(2, cfg, {&loose}, 0), "did not create");
}

TEST(FluidSolverDeathTest, CompletionCallbackMustNotChangeTheFlowSet)
{
    auto runWith = [](bool add) {
        EventQueue eq;
        FluidSolver solver(eq, "fluid", 0);
        FluidLink &l = solver.addLink("l", testEth(0, 0), 1460);
        TransportConfig cfg;
        solver.addFlow(2, cfg, {&l}, 0);
        FluidFlow &f = solver.addFlow(1, cfg, {&l}, 1000);
        f.onComplete = [&](FluidFlow &) {
            if (add)
                solver.addFlow(3, cfg, {&l}, 0);
            else
                solver.removeFlow(2);
        };
        solver.start(usToTicks(1000));
        eq.run();
    };
    EXPECT_DEATH(runWith(true), "addFlow called from a flow completion");
    EXPECT_DEATH(runWith(false),
                 "removeFlow called from a flow completion");
}

// -- Handoff conservation -----------------------------------------------

TEST(FidelityManager, PromoteConservesTheByteLedgerExactly)
{
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0);
    // A slow 4 Gbps link under a 40 Gbps flow builds backlog fast.
    EthConfig eth = testEth(0, 0);
    eth.gbps = 4.0;
    FluidLink &l = solver.addLink("l", eth, 1460);

    TransportConfig cfg;
    const std::uint64_t total = 1000000;
    solver.addFlow(1, cfg, {&l}, total);
    solver.start(usToTicks(300));
    eq.run();

    FidelityPolicy pol;
    pol.rttEstimate = usToTicks(25);
    FidelityManager mgr(pol);
    std::uint64_t delivered = 0;
    FlowHandoff h = mgr.promote(solver, 1, delivered);

    EXPECT_GT(delivered, 0u);
    EXPECT_GT(h.bytesInFlight, 0u);
    EXPECT_EQ(delivered + h.bytesInFlight + h.bytesUnsent, total);
    // The in-flight share is capped at one rate*RTT.
    EXPECT_LE(double(h.bytesInFlight),
              h.cc.rateGbps / 8000.0 * double(pol.rttEstimate) + 1.0);
    EXPECT_EQ(mgr.promotions(), 1u);
    EXPECT_EQ(solver.findFlow(1), nullptr);
}

namespace
{

/** A TransportFlow wired sender-to-receiver over one EthLink. */
struct WiredFlow
{
    EventQueue eq;
    EthConfig eth;
    TransportConfig cfg;
    EthLink link;
    struct Ep : NetEndpoint
    {
        TransportFlow *flow = nullptr;
        bool senderSide = false;
        void
        deliver(const PacketPtr &pkt) override
        {
            if (senderSide)
                flow->onSenderReceive(pkt);
            else
                flow->onReceiverReceive(pkt);
        }
    } sendEp, recvEp;
    std::unique_ptr<TransportFlow> flow;

    WiredFlow() : link(eq, "link", eth)
    {
        cfg.segmentBytes = 1000;
        flow = std::make_unique<TransportFlow>(eq, "flow", cfg, 9);
        sendEp.flow = flow.get();
        sendEp.senderSide = true;
        recvEp.flow = flow.get();
        link.connect(&sendEp, &recvEp);
        flow->bindSender(
            [](std::uint32_t bytes, std::uint64_t fid) {
                PacketPtr p = makePacket(bytes, 0, 1);
                p->flowId = fid;
                return p;
            },
            [this](const PacketPtr &p) { link.send(&sendEp, p); });
        flow->bindReceiver(
            [](std::uint32_t bytes, std::uint64_t fid) {
                PacketPtr p = makePacket(bytes, 1, 0);
                p->flowId = fid;
                p->isAck = true;
                return p;
            },
            [this](const PacketPtr &p) { link.send(&recvEp, p); });
    }
};

} // namespace

TEST(FidelityManager, DemoteMidFlightConservesBytesIntoTheSolver)
{
    WiredFlow w;
    const std::uint64_t total = 100000;
    w.flow->send(total);
    // Stop the packet domain mid-flight.
    w.eq.schedule(usToTicks(10), [&] {
        ASSERT_FALSE(w.flow->complete());
        EventQueue eq2; // fluid side gets its own clock
        FluidSolver solver(eq2, "fluid", 0);
        FluidLink &l = solver.addLink("l", testEth(0, 0), 1000);

        FidelityManager mgr(FidelityPolicy{});
        FluidFlow &ff = mgr.demote(solver, *w.flow, {&l});

        // exportHandoff's contract: delivered + in-flight + unsent
        // == enqueued; the fluid flow inherits exactly the remainder.
        EXPECT_TRUE(w.flow->detached());
        EXPECT_EQ(std::uint64_t(ff.totalBytes) +
                      w.flow->deliveredBytes(),
                  total);
        EXPECT_DOUBLE_EQ(ff.cc.rateGbps,
                         w.flow->config().lineRateGbps);

        // The fluid side finishes the remainder to the byte.
        solver.start(usToTicks(100000));
        eq2.run();
        EXPECT_DOUBLE_EQ(solver.totalDeliveredBytes(),
                         double(ff.totalBytes));
        EXPECT_EQ(mgr.demotions(), 1u);
    });
    w.eq.run();
}

TEST(FidelityManager, PromoteThenPacketFinishConservesEndToEnd)
{
    // Fluid phase: congested 4 Gbps link, stop after 300 us.
    EventQueue eq;
    FluidSolver solver(eq, "fluid", 0);
    EthConfig eth = testEth(0, 0);
    eth.gbps = 4.0;
    FluidLink &l = solver.addLink("l", eth, 1000);
    TransportConfig cfg;
    cfg.segmentBytes = 1000;
    const std::uint64_t total = 200000;
    solver.addFlow(5, cfg, {&l}, total);
    solver.start(usToTicks(300));
    eq.run();

    FidelityPolicy pol;
    pol.rttEstimate = usToTicks(25);
    FidelityManager mgr(pol);
    std::uint64_t fluidDelivered = 0;
    FlowHandoff h = mgr.promote(solver, 5, fluidDelivered);

    // Packet phase: a fresh flow imports the handoff and drains it.
    WiredFlow w;
    w.flow->importHandoff(h);
    w.flow->send(h.bytesRemaining());
    w.flow->close();
    w.eq.run();

    EXPECT_TRUE(w.flow->complete());
    EXPECT_EQ(fluidDelivered + w.flow->deliveredBytes(), total);
}

// -- Classification -----------------------------------------------------

TEST(FidelityManager, ClassifiesByInterestWitnessAndHotWindow)
{
    FidelityPolicy pol;
    pol.mode = FidelityMode::Hybrid;
    pol.interestNodes = {7};
    pol.hotWindows = {{usToTicks(100), usToTicks(200)}};
    pol.witnessEvery = 4;
    FidelityManager mgr(pol);

    // Interest node pins to packet-level, either direction.
    EXPECT_EQ(mgr.classify(1, 7, 3, 0), FlowFidelity::PacketLevel);
    EXPECT_EQ(mgr.classify(2, 3, 7, 0), FlowFidelity::PacketLevel);
    // Witness sample: every 4th flow id.
    EXPECT_EQ(mgr.classify(8, 1, 2, 0), FlowFidelity::PacketLevel);
    EXPECT_EQ(mgr.classify(9, 1, 2, 0), FlowFidelity::FluidLevel);
    // Hot window: [100 us, 200 us).
    EXPECT_EQ(mgr.classify(10, 1, 2, usToTicks(150)),
              FlowFidelity::PacketLevel);
    EXPECT_EQ(mgr.classify(10, 1, 2, usToTicks(200)),
              FlowFidelity::FluidLevel);
    // Forced modes override everything.
    FidelityPolicy packetMode;
    packetMode.mode = FidelityMode::Packet;
    FidelityManager pktOnly(packetMode);
    EXPECT_EQ(pktOnly.classify(9, 1, 2, 0),
              FlowFidelity::PacketLevel);
    FidelityPolicy fluidMode;
    fluidMode.mode = FidelityMode::Fluid;
    FidelityManager fluidOnly(fluidMode);
    EXPECT_EQ(fluidOnly.classify(8, 7, 2, 0),
              FlowFidelity::FluidLevel);
}

// -- Idle-background byte identity --------------------------------------

namespace
{

/** One sender behind a switch; records (seq, tick) deliveries. */
struct SwitchScenario
{
    EventQueue eq;
    EthConfig eth;
    TransportConfig cfg;
    Switch sw;
    EthLink access, bottleneck;
    struct SendEp : NetEndpoint
    {
        TransportFlow *flow = nullptr;
        void
        deliver(const PacketPtr &pkt) override
        {
            flow->onSenderReceive(pkt);
        }
    } sendEp;
    struct RecvEp : NetEndpoint
    {
        EventQueue *eq = nullptr;
        TransportFlow *flow = nullptr;
        std::vector<std::pair<std::uint64_t, Tick>> got;
        void
        deliver(const PacketPtr &pkt) override
        {
            got.emplace_back(pkt->seq, eq->curTick());
            flow->onReceiverReceive(pkt);
        }
    } recvEp;
    std::unique_ptr<TransportFlow> flow;
    FluidSolver solver;

    explicit SwitchScenario(bool idle_bg)
        : sw(eq, "sw", eth), access(eq, "access", eth),
          bottleneck(eq, "bottleneck", eth),
          solver(eq, "fluid", 0)
    {
        cfg.segmentBytes = 1000;
        access.connect(&sendEp, &sw);
        bottleneck.connect(&sw, &recvEp);
        sw.addRoute(1, &bottleneck);
        sw.addRoute(0, &access);
        recvEp.eq = &eq;
        if (idle_bg) {
            // Install the fluid hooks with zero fluid flows: the
            // `--fidelity packet` byte-identity guarantee.
            FluidLink &l = solver.addLink("bg", eth, 1000);
            bottleneck.setBackgroundSource(&l);
            sw.setBackgroundSource(&bottleneck, &l);
            solver.start(usToTicks(2000));
        }
        flow = std::make_unique<TransportFlow>(eq, "flow", cfg, 3);
        sendEp.flow = flow.get();
        recvEp.flow = flow.get();
        flow->bindSender(
            [](std::uint32_t bytes, std::uint64_t fid) {
                PacketPtr p = makePacket(bytes, 0, 1);
                p->flowId = fid;
                return p;
            },
            [this](const PacketPtr &p) { access.send(&sendEp, p); });
        flow->bindReceiver(
            [](std::uint32_t bytes, std::uint64_t fid) {
                PacketPtr p = makePacket(bytes, 1, 0);
                p->flowId = fid;
                p->isAck = true;
                return p;
            },
            [this](const PacketPtr &p) {
                bottleneck.send(&recvEp, p);
            });
        flow->send(64000);
        flow->close();
    }
};

} // namespace

TEST(FluidBackground, IdleHooksAreByteInvisibleToPacketRuns)
{
    SwitchScenario plain(false), inert(true);
    plain.eq.run();
    inert.eq.run();
    ASSERT_TRUE(plain.flow->complete());
    ASSERT_TRUE(inert.flow->complete());
    ASSERT_EQ(plain.recvEp.got.size(), inert.recvEp.got.size());
    for (std::size_t i = 0; i < plain.recvEp.got.size(); ++i) {
        EXPECT_EQ(plain.recvEp.got[i].first,
                  inert.recvEp.got[i].first);
        EXPECT_EQ(plain.recvEp.got[i].second,
                  inert.recvEp.got[i].second);
    }
    EXPECT_EQ(plain.flow->completeTick(), inert.flow->completeTick());
}
