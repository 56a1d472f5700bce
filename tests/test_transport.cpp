/**
 * @file
 * Tests for the reliable transport subsystem: link fault injection,
 * go-back-N retransmission, RTO expiry with bounded retries, raw vs
 * reliable delivery over a lossy link, and run-to-run determinism.
 */

#include <gtest/gtest.h>

#include "kernel/Node.hh"
#include "net/Switch.hh"
#include "transport/FaultInjector.hh"
#include "transport/TransportHost.hh"

using namespace netdimm;

namespace
{

/** A raw endpoint feeding one side of a TransportFlow, with the
 *  receiving MAC's FCS filter (corrupted frames vanish). */
struct FlowEndpoint : NetEndpoint
{
    TransportFlow *flow = nullptr;
    bool senderSide = false;

    void
    deliver(const PacketPtr &pkt) override
    {
        if (pkt->corrupted)
            return;
        if (senderSide)
            flow->onSenderReceive(pkt);
        else
            flow->onReceiverReceive(pkt);
    }
};

/** Drops the first data frame carrying @p seq, exactly once. */
struct DropSeqOnce : LinkFaultHook
{
    std::uint64_t seq;
    bool done = false;

    explicit DropSeqOnce(std::uint64_t s) : seq(s) {}

    Verdict
    judge(const PacketPtr &pkt) override
    {
        if (!done && !pkt->isAck && pkt->seq == seq) {
            done = true;
            return Verdict::Drop;
        }
        return Verdict::Deliver;
    }
};

/** Drops every data frame; ACK frames pass. */
struct DropAllData : LinkFaultHook
{
    Verdict
    judge(const PacketPtr &pkt) override
    {
        return pkt->isAck ? Verdict::Deliver : Verdict::Drop;
    }
};

/**
 * A flow between two raw endpoints over one EthLink: no Node / NIC
 * models, so the tests below see exactly the transport behaviour.
 */
struct RawFlowFixture
{
    EventQueue eq;
    EthConfig eth;
    TransportConfig cfg;
    EthLink link;
    FlowEndpoint sendEp, recvEp;
    std::unique_ptr<TransportFlow> flow;
    std::vector<std::uint64_t> deliveredSeqs;

    RawFlowFixture() : link(eq, "link", eth)
    {
        cfg.segmentBytes = 1000;
        cfg.window = 8;
        cfg.minRto = usToTicks(20);
        cfg.maxRto = usToTicks(320);
        flow = std::make_unique<TransportFlow>(eq, "flow", cfg, 7);
        sendEp.flow = flow.get();
        sendEp.senderSide = true;
        recvEp.flow = flow.get();
        link.connect(&sendEp, &recvEp);

        flow->bindSender(
            [this](std::uint32_t bytes, std::uint64_t fid) {
                PacketPtr p = makePacket(bytes, 0, 1);
                p->flowId = fid;
                return p;
            },
            [this](const PacketPtr &p) { link.send(&sendEp, p); });
        flow->bindReceiver(
            [this](std::uint32_t bytes, std::uint64_t fid) {
                PacketPtr p = makePacket(bytes, 1, 0);
                p->flowId = fid;
                return p;
            },
            [this](const PacketPtr &p) { link.send(&recvEp, p); });
        flow->setDeliveryHandler(
            [this](const PacketPtr &p, Tick) {
                deliveredSeqs.push_back(p->seq);
            });
    }
};

} // namespace

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

TEST(FaultInjector, DeterministicForSeed)
{
    FaultRegistry ra(42), rb(42);
    FaultInjector a(ra, "link", 0.1, 0.05), b(rb, "link", 0.1, 0.05);
    for (int i = 0; i < 2000; ++i) {
        PacketPtr p = makePacket(64);
        EXPECT_EQ(int(a.judge(p)), int(b.judge(p)));
    }
    EXPECT_EQ(a.framesDropped(), b.framesDropped());
    EXPECT_EQ(a.framesCorrupted(), b.framesCorrupted());
    EXPECT_GT(a.framesDropped(), 0u);
    EXPECT_GT(a.framesCorrupted(), 0u);
}

TEST(FaultInjector, RatesMatchConfiguredProbabilities)
{
    FaultRegistry reg(7);
    FaultInjector inj(reg, "link", 0.02, 0.0);
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        inj.judge(makePacket(64));
    EXPECT_NEAR(double(inj.framesDropped()) / n, 0.02, 0.005);
    EXPECT_EQ(inj.framesCorrupted(), 0u);
}

TEST(FaultInjector, LinkDropAndCorruptStats)
{
    EventQueue eq;
    EthConfig eth;
    EthLink link(eq, "l", eth);
    struct Sink : NetEndpoint
    {
        int intact = 0, corrupted = 0;
        void
        deliver(const PacketPtr &p) override
        {
            (p->corrupted ? corrupted : intact)++;
        }
    } a, b;
    link.connect(&a, &b);

    FaultRegistry reg(3);
    FaultInjector inj(reg, "link", 0.2, 0.2);
    link.setFaultHook(&inj);

    const int n = 1000;
    for (int i = 0; i < n; ++i)
        link.send(&a, makePacket(200, 0, 1));
    eq.run();

    EXPECT_EQ(link.framesDropped(), inj.framesDropped());
    EXPECT_EQ(link.framesCorrupted(), inj.framesCorrupted());
    EXPECT_GT(link.framesDropped(), 0u);
    EXPECT_GT(link.framesCorrupted(), 0u);
    EXPECT_EQ(b.intact + b.corrupted,
              n - int(link.framesDropped()));
    EXPECT_EQ(b.corrupted, int(link.framesCorrupted()));
}

// ---------------------------------------------------------------------
// Go-back-N over a raw link
// ---------------------------------------------------------------------

TEST(TransportFlow, DeliversAllBytesInOrderLossless)
{
    RawFlowFixture f;
    f.flow->send(10 * 1000);
    f.flow->close();
    f.eq.run();

    EXPECT_TRUE(f.flow->complete());
    EXPECT_FALSE(f.flow->aborted());
    EXPECT_EQ(f.flow->deliveredBytes(), 10000u);
    EXPECT_EQ(f.flow->retransmissions(), 0u);
    ASSERT_EQ(f.deliveredSeqs.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(f.deliveredSeqs[i], i);
}

TEST(TransportFlow, GoBackNRecoversAnInjectedDrop)
{
    RawFlowFixture f;
    DropSeqOnce hook(/*seq=*/2);
    f.link.setFaultHook(&hook);

    f.flow->send(10 * 1000);
    f.flow->close();
    f.eq.run();

    EXPECT_TRUE(hook.done);
    EXPECT_TRUE(f.flow->complete());
    // The drop forced at least seq 2 to be resent; with a window of 8
    // go-back-N also resends its successors that were in flight.
    EXPECT_GT(f.flow->retransmissions(), 0u);
    EXPECT_GT(f.flow->fastRetransmits() + f.flow->timeouts(), 0u);
    EXPECT_GT(f.flow->outOfOrderDrops(), 0u);
    // Despite the loss, everything arrives exactly once, in order.
    EXPECT_EQ(f.flow->deliveredBytes(), 10000u);
    ASSERT_EQ(f.deliveredSeqs.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(f.deliveredSeqs[i], i);
}

TEST(TransportFlow, CorruptedFrameIsRecoveredToo)
{
    RawFlowFixture f;
    struct CorruptSeqOnce : LinkFaultHook
    {
        bool done = false;
        Verdict
        judge(const PacketPtr &pkt) override
        {
            if (!done && !pkt->isAck && pkt->seq == 1) {
                done = true;
                return Verdict::Corrupt;
            }
            return Verdict::Deliver;
        }
    } hook;
    f.link.setFaultHook(&hook);

    f.flow->send(6 * 1000);
    f.flow->close();
    f.eq.run();

    EXPECT_TRUE(f.flow->complete());
    EXPECT_EQ(f.flow->deliveredBytes(), 6000u);
    EXPECT_GT(f.flow->retransmissions(), 0u);
    EXPECT_EQ(f.link.framesCorrupted(), 1u);
}

TEST(TransportFlow, RtoExpiryAbortsAfterBoundedRetries)
{
    RawFlowFixture f;
    DropAllData hook;
    f.link.setFaultHook(&hook);

    f.flow->send(3 * 1000);
    f.flow->close();
    Tick start = f.eq.curTick();
    f.eq.run();

    EXPECT_FALSE(f.flow->complete());
    EXPECT_TRUE(f.flow->aborted());
    // One expiry per retry plus the final one that gives up.
    EXPECT_EQ(f.flow->timeouts(),
              std::uint64_t(f.cfg.maxRetries) + 1);
    EXPECT_EQ(f.flow->deliveredBytes(), 0u);
    // Exponential backoff: the abort happens well after maxRetries
    // minimum-RTO periods.
    EXPECT_GT(f.eq.curTick() - start,
              Tick(f.cfg.maxRetries) * f.cfg.minRto);
    // The event queue drained: no timer leaked after the abort.
    EXPECT_TRUE(f.eq.empty());
}

TEST(TransportFlow, EcnEchoCutsSenderRate)
{
    RawFlowFixture f;
    double line = f.cfg.lineRateGbps;
    // Deliver data frames pre-marked as if a congested switch stood
    // between the endpoints.
    struct MarkAll : LinkFaultHook
    {
        Verdict
        judge(const PacketPtr &pkt) override
        {
            if (!pkt->isAck)
                pkt->ecnMarked = true;
            return Verdict::Deliver;
        }
    } hook;
    f.link.setFaultHook(&hook);

    f.flow->send(20 * 1000);
    f.flow->close();
    f.eq.run();

    EXPECT_TRUE(f.flow->complete());
    EXPECT_GT(f.flow->ecnEchoes(), 0u);
    EXPECT_GT(f.flow->rateCuts(), 0u);
    EXPECT_LT(f.flow->currentRateGbps(), line);
}

// ---------------------------------------------------------------------
// Node-level: raw mode loses frames, reliable mode does not
// ---------------------------------------------------------------------

namespace
{

struct NodePairFixture
{
    SystemConfig sys;
    EventQueue eq;
    std::unique_ptr<Node> tx, rx;
    std::unique_ptr<EthLink> link;
    FaultRegistry faults{99};
    FaultInjector inj;

    explicit NodePairFixture(double drop_prob)
        : inj(faults, "link", drop_prob, 0.0)
    {
        tx = std::make_unique<Node>(eq, "tx", sys, 0);
        rx = std::make_unique<Node>(eq, "rx", sys, 1);
        link = std::make_unique<EthLink>(eq, "link", sys.eth);
        link->connect(tx->endpoint(), rx->endpoint());
        tx->connectTo(*link);
        rx->connectTo(*link);
        link->setFaultHook(&inj);
    }
};

} // namespace

TEST(ReliableVsRaw, RawModeLosesFramesAtOnePercentLoss)
{
    NodePairFixture f(0.01);
    const int n = 1500;
    int received = 0;
    f.rx->setReceiveHandler(
        [&](const PacketPtr &, Tick) { ++received; });

    Tick t = 0;
    for (int i = 0; i < n; ++i) {
        t += nsToTicks(500);
        f.eq.schedule(t, [&f, i] {
            PacketPtr pkt =
                f.tx->makeTxPacket(1460, f.rx->id(), 1 + (i % 8));
            f.tx->sendPacket(pkt);
        });
    }
    f.eq.run();

    EXPECT_GT(f.link->framesDropped(), 0u);
    EXPECT_LT(received, n);
    EXPECT_EQ(received, n - int(f.link->framesDropped()));
}

TEST(ReliableVsRaw, ReliableModeDeliversEverythingAtOnePercentLoss)
{
    NodePairFixture f(0.01);
    TransportHost txHost(f.eq, "txhost", *f.tx);
    TransportHost rxHost(f.eq, "rxhost", *f.rx);
    TransportConfig tcfg = f.sys.transport;
    TransportFlow flow(f.eq, "flow", tcfg, 1);
    connectFlow(flow, txHost, rxHost);

    std::uint64_t expected_seq = 0;
    bool in_order = true;
    flow.setDeliveryHandler([&](const PacketPtr &p, Tick) {
        in_order = in_order && (p->seq == expected_seq);
        ++expected_seq;
    });

    const std::uint64_t total = 1500ull * tcfg.segmentBytes;
    flow.send(total);
    flow.close();
    f.eq.run();

    // Frames were lost on the wire...
    EXPECT_GT(f.link->framesDropped(), 0u);
    EXPECT_GT(flow.retransmissions(), 0u);
    // ...yet every payload byte arrived, exactly once, in order.
    EXPECT_TRUE(flow.complete());
    EXPECT_FALSE(flow.aborted());
    EXPECT_EQ(flow.deliveredBytes(), total);
    EXPECT_TRUE(in_order);
    EXPECT_EQ(expected_seq, 1500u);
}

// ---------------------------------------------------------------------
// Determinism: same seed => identical drop pattern and final stats
// ---------------------------------------------------------------------

namespace
{

struct IncastResult
{
    std::uint64_t delivered = 0;
    std::uint64_t retx = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t ecnMarks = 0;
    std::uint64_t queueDrops = 0;
    std::uint64_t faultDrops = 0;
    Tick lastCompletion = 0;

    bool
    operator==(const IncastResult &o) const
    {
        return delivered == o.delivered && retx == o.retx &&
               timeouts == o.timeouts && ecnMarks == o.ecnMarks &&
               queueDrops == o.queueDrops &&
               faultDrops == o.faultDrops &&
               lastCompletion == o.lastCompletion;
    }
};

IncastResult
runSmallIncast(std::uint64_t seed)
{
    SystemConfig sys;
    sys.eth.switchQueueFrames = 16;
    sys.eth.ecnThresholdFrames = 4;

    EventQueue eq;
    Switch sw(eq, "sw", sys.eth);
    Node rxNode(eq, "rx", sys, 0);
    EthLink down(eq, "down", sys.eth);
    down.connect(&sw, rxNode.endpoint());
    rxNode.connectTo(down);
    sw.addRoute(0, &down);

    FaultRegistry faults(seed);
    FaultInjector inj(faults, "link", 0.005, 0.0);
    down.setFaultHook(&inj);

    TransportHost rxHost(eq, "rxhost", rxNode);

    const int fanin = 2;
    std::vector<std::unique_ptr<Node>> senders;
    std::vector<std::unique_ptr<EthLink>> links;
    std::vector<std::unique_ptr<TransportHost>> hosts;
    std::vector<std::unique_ptr<TransportFlow>> flows;
    IncastResult r;
    for (int s = 0; s < fanin; ++s) {
        auto node = std::make_unique<Node>(
            eq, "tx" + std::to_string(s), sys, 1 + s);
        auto link = std::make_unique<EthLink>(
            eq, "up" + std::to_string(s), sys.eth);
        link->connect(&sw, node->endpoint());
        node->connectTo(*link);
        sw.addRoute(1 + s, link.get());
        auto host = std::make_unique<TransportHost>(
            eq, "host" + std::to_string(s), *node);
        auto flow = std::make_unique<TransportFlow>(
            eq, "flow" + std::to_string(s), sys.transport, 1 + s);
        connectFlow(*flow, *host, rxHost);
        flow->setCompletionHandler([&r](TransportFlow &f) {
            r.lastCompletion =
                std::max(r.lastCompletion, f.completeTick());
        });
        flow->send(100ull * sys.transport.segmentBytes);
        flow->close();
        senders.push_back(std::move(node));
        links.push_back(std::move(link));
        hosts.push_back(std::move(host));
        flows.push_back(std::move(flow));
    }
    eq.run();

    for (auto &f : flows) {
        r.delivered += f->deliveredBytes();
        r.retx += f->retransmissions();
        r.timeouts += f->timeouts();
    }
    r.ecnMarks = sw.ecnMarks();
    r.queueDrops = sw.dropsQueue();
    r.faultDrops = down.framesDropped();
    return r;
}

} // namespace

TEST(Determinism, SameSeedSameDropPatternAndStats)
{
    IncastResult a = runSmallIncast(1234);
    IncastResult b = runSmallIncast(1234);
    EXPECT_TRUE(a == b);
    // The run actually exercised loss/congestion machinery.
    EXPECT_GT(a.faultDrops, 0u);
    EXPECT_GT(a.retx, 0u);
    EXPECT_EQ(a.delivered,
              2 * 100ull * SystemConfig{}.transport.segmentBytes);
}

TEST(Determinism, DifferentSeedDifferentDropPattern)
{
    IncastResult a = runSmallIncast(1234);
    IncastResult b = runSmallIncast(4321);
    // Same totals delivered (reliability), different loss pattern.
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_FALSE(a == b);
}

// ---------------------------------------------------------------------
// DCQCN timer rounds: applied at the flow's next touch, exactly as a
// timer event at EventPriority::Maintenance would have applied them
// ---------------------------------------------------------------------

namespace
{

/**
 * The sender half alone: data frames are captured instead of
 * delivered and ACKs are injected by hand, so a test decides exactly
 * when the flow is touched. The RTO is far beyond every horizon
 * below, so only timer rounds and injected ECN echoes move the rate.
 */
struct SenderFixture
{
    EventQueue eq;
    TransportConfig cfg;
    std::unique_ptr<TransportFlow> flow;
    std::vector<PacketPtr> sent;

    SenderFixture()
    {
        cfg.segmentBytes = 1000;
        cfg.window = 8;
        cfg.minRto = cfg.maxRto = usToTicks(10000);
        flow = std::make_unique<TransportFlow>(eq, "flow", cfg, 7);
        flow->bindSender(
            [](std::uint32_t bytes, std::uint64_t fid) {
                PacketPtr p = makePacket(bytes, 0, 1);
                p->flowId = fid;
                return p;
            },
            [this](const PacketPtr &p) { sent.push_back(p); });
    }

    /** A cumulative ACK for @p ack_seq reaches the sender at @p when. */
    void
    ackAt(Tick when, std::uint64_t ack_seq, bool ecn_echo)
    {
        PacketPtr ack = makePacket(cfg.ackBytes, 1, 0);
        ack->isAck = true;
        ack->ackSeq = ack_seq;
        ack->ecnEcho = ecn_echo;
        eq.schedule(when, [this, ack] { flow->onSenderReceive(ack); });
    }

    /** Round period; the first transmit at tick 0 anchors the chain,
     *  so round k is due at k * period(). */
    Tick period() const { return cfg.rateIncreaseInterval; }
};

/** A state right after one cut from line rate: the first round only
 *  clears the cut flag, later ones recover the rate step by step. */
DcqcnState
cutState(const TransportConfig &cfg)
{
    DcqcnState s;
    s.init(cfg);
    s.cut(cfg, /*now=*/1);
    return s;
}

DcqcnState
afterRounds(DcqcnState s, const TransportConfig &cfg, int rounds)
{
    for (int i = 0; i < rounds; ++i)
        s.timerRound(cfg);
    return s;
}

void
expectSameState(const DcqcnState &got, const DcqcnState &want)
{
    EXPECT_EQ(got.rateGbps, want.rateGbps);
    EXPECT_EQ(got.targetGbps, want.targetGbps);
    EXPECT_EQ(got.alpha, want.alpha);
    EXPECT_EQ(got.lastCutTick, want.lastCutTick);
    EXPECT_EQ(got.cutSinceLastTimer, want.cutSinceLastTimer);
    EXPECT_EQ(got.incRounds, want.incRounds);
}

} // namespace

TEST(TransportRateRounds, EcnEchoOnADueTickSeesThatRoundFirst)
{
    SenderFixture f;
    f.flow->send(20 * 1000);
    const Tick due = f.period(); // round 1
    f.ackAt(due, /*ack_seq=*/1, /*ecn_echo=*/true);
    f.eq.runUntil(due);
    EXPECT_EQ(f.flow->rateCuts(), 1u);

    DcqcnState want;
    want.init(f.cfg);
    want.timerRound(f.cfg);
    want.cut(f.cfg, due);
    FlowHandoff h = f.flow->exportHandoff();
    expectSameState(h.cc, want);

    // The other order is observably different, so the check above
    // pins which one the flow used.
    DcqcnState cutFirst;
    cutFirst.init(f.cfg);
    cutFirst.cut(f.cfg, due);
    cutFirst.timerRound(f.cfg);
    EXPECT_NE(h.cc.alpha, cutFirst.alpha);
    EXPECT_NE(h.cc.rateGbps, cutFirst.rateGbps);
}

TEST(TransportRateRounds, RateAfterRunUntilHasEveryDueRound)
{
    SenderFixture f;
    FlowHandoff in;
    in.cc = cutState(f.cfg);
    f.flow->importHandoff(in);
    f.flow->send(20 * 1000);

    const int n = 7;
    f.eq.runUntil(n * f.period() - 1);
    EXPECT_EQ(f.flow->currentRateGbps(),
              afterRounds(in.cc, f.cfg, n - 1).rateGbps);
    // Round n is due exactly at the horizon: it counts.
    f.eq.runUntil(n * f.period());
    EXPECT_EQ(f.flow->currentRateGbps(),
              afterRounds(in.cc, f.cfg, n).rateGbps);
    EXPECT_LT(f.flow->currentRateGbps(), f.cfg.lineRateGbps);
    EXPECT_GT(f.flow->currentRateGbps(),
              afterRounds(in.cc, f.cfg, n - 1).rateGbps);
}

TEST(TransportRateRounds, DrainedClockEndsAtTheFinalDueRound)
{
    RawFlowFixture f;
    f.flow->send(1200 * 1000);
    f.flow->close();
    f.eq.run();

    ASSERT_TRUE(f.flow->complete());
    const Tick period = f.cfg.rateIncreaseInterval;
    // The flow had work from its first transmit (tick 0) until it
    // completed, so its rounds fell on multiples of the period; the
    // chain's last round is the first one after completion.
    ASSERT_GT(f.flow->completeTick(), 2 * period);
    EXPECT_EQ(f.eq.curTick(),
              (f.flow->completeTick() / period + 1) * period);
}

TEST(TransportRateRounds, IdleFlowClockEndsAtItsLastRound)
{
    RawFlowFixture f;
    // Never closed: once everything is acked the flow idles, and its
    // chain ends with one last round at the next due tick.
    f.flow->send(4 * 1000);
    f.eq.run();

    EXPECT_FALSE(f.flow->complete());
    EXPECT_EQ(f.flow->deliveredBytes(), 4000u);
    EXPECT_EQ(f.eq.curTick(), f.cfg.rateIncreaseInterval);
}

TEST(TransportRateRounds, HandoffMidChainIncludesEveryDueRound)
{
    SenderFixture f;
    FlowHandoff in;
    in.cc = cutState(f.cfg);
    f.flow->importHandoff(in);
    f.flow->send(20 * 1000);

    const int n = 12; // past fast recovery: additive increase
    f.eq.runUntil(n * f.period() + f.period() / 2);
    FlowHandoff h = f.flow->exportHandoff();
    expectSameState(h.cc, afterRounds(in.cc, f.cfg, n));
    EXPECT_EQ(h.bytesInFlight + h.bytesUnsent, 20u * 1000u);
    // A detached flow leaves nothing behind in the queue: no RTO, no
    // round, no chain-end event.
    EXPECT_TRUE(f.eq.empty());
}
