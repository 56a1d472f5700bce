/**
 * @file
 * Unit tests for the near-memory handler stage: the served-op set,
 * run-queue admission and overflow fallback, the on-DIMM KV body,
 * handler fault injection and recovery, and the MemoryController's
 * handler-class arbitration policies.
 */

#include <gtest/gtest.h>

#include <vector>

#include "handler/HandlerStage.hh"
#include "mem/MemoryController.hh"
#include "netdimm/NetDimmDevice.hh"
#include "sim/Fault.hh"

using namespace netdimm;

namespace
{

struct Fixture
{
    EventQueue eq;
    SystemConfig cfg;
    MemoryController mc;
    HandlerStage hs;
    std::vector<PacketPtr> txed;   ///< replies out of the nNIC
    std::vector<PacketPtr> hosted; ///< fell through to host RX

    explicit Fixture(std::function<void(SystemConfig &)> tweak = {})
        : mc(eq, "mc", tweaked(cfg, std::move(tweak)).dram, localGeo(),
             cfg.memCtrl),
          hs(eq, "hs", cfg, mc, localGeo().channelBytes())
    {
        hs.setTx([this](const PacketPtr &p) { txed.push_back(p); });
        hs.setHostRx(
            [this](const PacketPtr &p) { hosted.push_back(p); });
    }

    static DramGeometry
    localGeo()
    {
        SystemConfig c;
        return NetDimmDevice::localGeometry(c);
    }

    static const SystemConfig &
    tweaked(SystemConfig &c, std::function<void(SystemConfig &)> f)
    {
        c.handler.enabled = true;
        if (f)
            f(c);
        return c;
    }

    PacketPtr
    packet(RpcOp op, std::uint64_t key, std::uint64_t flow = 1,
           std::uint32_t bytes = 64)
    {
        PacketPtr p = makePacket(eq, bytes, /*src=*/0, /*dst=*/1);
        p->flowId = flow;
        p->rpcOp = op;
        p->rpcKey = key;
        return p;
    }
};

} // namespace

TEST(HandlerStage, EmptyTableConsumesNothing)
{
    Fixture f;
    EXPECT_FALSE(f.hs.offer(f.packet(RpcOp::Get, 1)));
    f.eq.run();
    EXPECT_EQ(f.hs.accepted(), 0u);
    EXPECT_EQ(f.hs.invocations(), 0u);
    EXPECT_TRUE(f.txed.empty());
    EXPECT_TRUE(f.hosted.empty());
}

TEST(HandlerStage, ServesOnlyTheConfiguredOps)
{
    Fixture f;
    f.hs.serve(RpcOp::Get);
    EXPECT_TRUE(f.hs.serving());

    // An unserved op is refused at offer() time, and the refusal is
    // not an overflow: the stage had room, it just does not serve it.
    EXPECT_FALSE(f.hs.offer(f.packet(RpcOp::Put, 1, 1, 256)));
    EXPECT_EQ(f.hs.overflows(), 0u);
    EXPECT_TRUE(f.hs.offer(f.packet(RpcOp::Get, 2)));
    f.eq.run();
    EXPECT_EQ(f.hs.accepted(), 1u);
    ASSERT_EQ(f.txed.size(), 1u);
    EXPECT_EQ(f.txed[0]->rpcKey, 2u);
    EXPECT_TRUE(f.hosted.empty());

    // A power cycle clears the set: nothing is served any more.
    f.hs.powerCycle();
    EXPECT_FALSE(f.hs.serving());
    EXPECT_FALSE(f.hs.offer(f.packet(RpcOp::Get, 3)));
    EXPECT_FALSE(f.hs.offer(f.packet(RpcOp::Put, 4, 1, 256)));
    EXPECT_EQ(f.hs.accepted(), 1u);
    EXPECT_EQ(f.hs.overflows(), 0u);
}

TEST(HandlerStage, KvKernelRepliesFromTheDimm)
{
    Fixture f;
    f.hs.configureKv(1u << 10, 1u << 10, 256);
    f.hs.serve(RpcOp::Get);
    f.hs.serve(RpcOp::Put);

    EXPECT_TRUE(f.hs.offer(f.packet(RpcOp::Get, 42)));
    EXPECT_TRUE(f.hs.offer(f.packet(RpcOp::Put, 43, 1, 256)));
    f.eq.run();

    EXPECT_EQ(f.hs.invocations(), 2u);
    EXPECT_EQ(f.hs.replies(), 2u);
    ASSERT_EQ(f.txed.size(), 2u);
    // GET replies carry the value, PUTs a bare ack; both echo the
    // caller's correlation key.
    EXPECT_EQ(f.txed[0]->rpcOp, RpcOp::Resp);
    EXPECT_EQ(f.txed[0]->rpcKey, 42u);
    EXPECT_GE(f.txed[0]->bytes, 256u);
    EXPECT_EQ(f.txed[1]->rpcKey, 43u);
    EXPECT_LT(f.txed[1]->bytes, 256u);
    // Bucket probe + value access reached the local DRAM.
    EXPECT_GT(f.mc.handlerBeats(), 0u);
}

TEST(HandlerStage, RunQueueOverflowFallsBackToHost)
{
    Fixture f([](SystemConfig &c) {
        c.handler.cores = 1;
        c.handler.runQueueDepth = 2;
    });
    f.hs.serve(RpcOp::Get);

    // Capacity is cores + queue depth = 3 in-flight frames; the rest
    // must be refused at classification time, not dropped.
    int accepted = 0, refused = 0;
    for (int i = 0; i < 8; ++i) {
        if (f.hs.offer(f.packet(RpcOp::Get, i)))
            ++accepted;
        else
            ++refused;
    }
    EXPECT_EQ(accepted, 3);
    EXPECT_EQ(refused, 5);
    EXPECT_EQ(f.hs.overflows(), 5u);
    f.eq.run();
    EXPECT_EQ(f.hs.invocations(), 3u);
    EXPECT_EQ(f.hs.maxQueueDepth(), 2u);
}

// -- fault injection & recovery (DESIGN.md §14) -------------------------

TEST(HandlerFaults, CrashFallsBackToHostAndClosesLedger)
{
    Fixture f([](SystemConfig &c) {
        c.faults.handlerCrashProb = 1.0;
    });
    FaultDomain dom("t.handler", 1);
    f.hs.setFaultInjection(&dom, &f.cfg.faults);
    f.hs.serve(RpcOp::Get);

    EXPECT_TRUE(f.hs.offer(f.packet(RpcOp::Get, 7)));
    f.eq.run();

    // The KV body trapped: no reply, the frame bounced to the host,
    // and the injected fault was booked recovered exactly once.
    EXPECT_EQ(f.hs.crashFaults(), 1u);
    EXPECT_EQ(f.hs.faultFallbacks(), 1u);
    EXPECT_EQ(f.hs.replies(), 0u);
    EXPECT_TRUE(f.txed.empty());
    ASSERT_EQ(f.hosted.size(), 1u);
    EXPECT_EQ(f.hosted[0]->rpcKey, 7u);
    EXPECT_EQ(dom.injected(), 1u);
    EXPECT_EQ(dom.recovered(), 1u);
    EXPECT_TRUE(dom.ledgerClosed());
}

TEST(HandlerFaults, HangRecoveredByWatchdogWithQueueDrain)
{
    Fixture f([](SystemConfig &c) {
        c.handler.cores = 1;
        c.faults.handlerHangProb = 1.0;
        c.faults.handlerStallTimeout = usToTicks(5);
        c.faults.handlerWatchdogPeriod = usToTicks(2);
    });
    FaultDomain dom("t.handler", 1);
    f.hs.setFaultInjection(&dom, &f.cfg.faults);
    f.hs.serve(RpcOp::Get);

    // First frame wedges the only core; the second waits behind it.
    EXPECT_TRUE(f.hs.offer(f.packet(RpcOp::Get, 1)));
    EXPECT_TRUE(f.hs.offer(f.packet(RpcOp::Get, 2)));
    f.eq.run();

    // The watchdog reset the core, rescued the wedged frame AND
    // drained the queued one to the host — nothing is lost.
    EXPECT_EQ(f.hs.hangFaults(), 1u);
    EXPECT_EQ(f.hs.watchdogResets(), 1u);
    EXPECT_EQ(f.hs.drainedToHost(), 1u);
    EXPECT_EQ(f.hosted.size(), 2u);
    EXPECT_EQ(dom.injected(), 1u);
    EXPECT_EQ(dom.recovered(), 1u);
    EXPECT_TRUE(dom.ledgerClosed());
}

TEST(HandlerFaults, KvCorruptionNacksGetsButNotPuts)
{
    Fixture f([](SystemConfig &c) {
        c.faults.kvCorruptProb = 1.0;
    });
    FaultDomain dom("t.handler", 1);
    f.hs.setFaultInjection(&dom, &f.cfg.faults);
    f.hs.serve(RpcOp::Get);
    f.hs.serve(RpcOp::Put);

    EXPECT_TRUE(f.hs.offer(f.packet(RpcOp::Get, 1)));
    EXPECT_TRUE(f.hs.offer(f.packet(RpcOp::Put, 2, 1, 256)));
    f.eq.run();

    // The GET's checksum verify failed: NACK + host fallback. The
    // PUT never reads a value, so it replies normally.
    EXPECT_EQ(f.hs.corruptNacks(), 1u);
    EXPECT_EQ(f.hs.faultFallbacks(), 1u);
    EXPECT_EQ(f.hs.replies(), 1u);
    ASSERT_EQ(f.hosted.size(), 1u);
    EXPECT_EQ(f.hosted[0]->rpcKey, 1u);
    ASSERT_EQ(f.txed.size(), 1u);
    EXPECT_EQ(f.txed[0]->rpcKey, 2u);
    EXPECT_TRUE(dom.ledgerClosed());
}

TEST(HandlerFaults, WatchdogBeatsCrashTrapWithoutDoubleCount)
{
    // A crash whose trap detection is slower than the stall watchdog:
    // the watchdog resets the core first (booking the recovery), and
    // the late trap must see the stale generation and book NOTHING —
    // one injection, one recovery, one fallback.
    Fixture f([](SystemConfig &c) {
        c.faults.handlerCrashProb = 1.0;
        c.faults.handlerCrashDetectCycles = 1'000'000; // ~833us
        c.faults.handlerStallTimeout = usToTicks(5);
        c.faults.handlerWatchdogPeriod = usToTicks(2);
    });
    FaultDomain dom("t.handler", 1);
    f.hs.setFaultInjection(&dom, &f.cfg.faults);
    f.hs.serve(RpcOp::Get);

    EXPECT_TRUE(f.hs.offer(f.packet(RpcOp::Get, 5)));
    f.eq.run();

    EXPECT_EQ(f.hs.crashFaults(), 1u);
    EXPECT_EQ(f.hs.watchdogResets(), 1u);
    EXPECT_EQ(f.hs.faultFallbacks(), 1u);
    EXPECT_EQ(f.hosted.size(), 1u);
    EXPECT_EQ(dom.injected(), 1u);
    EXPECT_EQ(dom.recovered(), 1u); // NOT 2: the stale trap is a no-op
    EXPECT_TRUE(dom.ledgerClosed());
}

TEST(HandlerFaults, HangAndCrashRollsInjectAtMostOneFault)
{
    // Both Bernoulli rolls certain: only the hang manifests, and the
    // ledger demands exactly one recovery — the split-draw pattern
    // must not double-book the injection.
    Fixture f([](SystemConfig &c) {
        c.faults.handlerHangProb = 1.0;
        c.faults.handlerCrashProb = 1.0;
        c.faults.handlerStallTimeout = usToTicks(5);
        c.faults.handlerWatchdogPeriod = usToTicks(2);
    });
    FaultDomain dom("t.handler", 1);
    f.hs.setFaultInjection(&dom, &f.cfg.faults);
    f.hs.serve(RpcOp::Get);

    EXPECT_TRUE(f.hs.offer(f.packet(RpcOp::Get, 1)));
    f.eq.run();

    EXPECT_EQ(f.hs.hangFaults(), 1u);
    EXPECT_EQ(f.hs.crashFaults(), 0u);
    EXPECT_EQ(dom.injected(), 1u);
    EXPECT_EQ(dom.recovered(), 1u);
    EXPECT_TRUE(dom.ledgerClosed());
}

TEST(HandlerFaults, ZeroRateWiringIsByteIdentical)
{
    // Wiring a domain with all probabilities zero must not move a
    // single reply by a single tick: draws come from the private
    // stream and never change the schedule.
    auto replyTicks = [](bool wired) {
        Fixture f;
        FaultDomain dom("t.handler", 1);
        if (wired)
            f.hs.setFaultInjection(&dom, &f.cfg.faults);
        f.hs.serve(RpcOp::Get);
        f.hs.serve(RpcOp::Put);
        std::vector<std::pair<std::uint64_t, Tick>> out;
        f.hs.setTx([&f, &out](const PacketPtr &p) {
            out.emplace_back(p->rpcKey, f.eq.curTick());
        });
        for (int i = 0; i < 12; ++i)
            f.hs.offer(f.packet(i % 3 ? RpcOp::Get : RpcOp::Put,
                                std::uint64_t(i), std::uint64_t(i)));
        f.eq.run();
        EXPECT_TRUE(dom.ledgerClosed());
        return out;
    };
    EXPECT_EQ(replyTicks(false), replyTicks(true));
}

TEST(HandlerStage, DispatchShedsExpiredDeadlines)
{
    Fixture f([](SystemConfig &c) {
        c.handler.cores = 1;
        c.handler.dropExpiredAtDispatch = true;
        c.handler.dispatchMargin = 0;
    });
    f.hs.serve(RpcOp::Get);

    // First frame occupies the core; the second is already dead when
    // the core frees, so it must be shed without running the KV body.
    PacketPtr live = f.packet(RpcOp::Get, 1);
    PacketPtr dead = f.packet(RpcOp::Get, 2);
    dead->rpcDeadline = 1; // expires at tick 1, long before dispatch
    EXPECT_TRUE(f.hs.offer(live));
    EXPECT_TRUE(f.hs.offer(dead));
    f.eq.run();

    EXPECT_EQ(f.hs.invocations(), 1u);
    EXPECT_EQ(f.hs.replies(), 1u);
    EXPECT_EQ(f.hs.shedExpired(), 1u);
    ASSERT_EQ(f.txed.size(), 1u);
    EXPECT_EQ(f.txed[0]->rpcKey, 1u);
}

// -- arbitration: the handler requestor class at the nMC ----------------

namespace
{

/** Issue @p n back-to-back 64B reads of @p src, return completions. */
std::vector<Tick>
burst(MemoryController &mc, MemSource src, int n, Addr base)
{
    std::vector<Tick> done(n, 0);
    for (int i = 0; i < n; ++i) {
        auto req = makeMemRequest(base + Addr(i) * 4096, 64, false,
                                  src, [&done, i](Tick t) {
                                      done[std::size_t(i)] = t;
                                  });
        mc.access(req);
    }
    return done;
}

double
meanT(const std::vector<Tick> &v)
{
    double s = 0;
    for (Tick t : v)
        s += double(t);
    return s / double(v.size());
}

} // namespace

TEST(MemoryController, HostPriorityFavoursHostUnderContention)
{
    SystemConfig cfg;
    cfg.memCtrl.handlerArb = MemArbPolicy::HostPriority;
    EventQueue eq;
    DramGeometry g = NetDimmDevice::localGeometry(cfg);
    MemoryController mc(eq, "mc", cfg.dram, g, cfg.memCtrl);

    auto host = burst(mc, MemSource::HostCpu, 32, 0);
    auto hand = burst(mc, MemSource::Handler, 32, 1u << 20);
    eq.run();
    EXPECT_LT(meanT(host), meanT(hand));
}

TEST(MemoryController, FairSitsBetweenPriorityExtremes)
{
    auto gap = [](MemArbPolicy arb) {
        SystemConfig cfg;
        cfg.memCtrl.handlerArb = arb;
        EventQueue eq;
        DramGeometry g = NetDimmDevice::localGeometry(cfg);
        MemoryController mc(eq, "mc", cfg.dram, g, cfg.memCtrl);
        auto host = burst(mc, MemSource::HostCpu, 32, 0);
        auto hand = burst(mc, MemSource::Handler, 32, 1u << 20);
        eq.run();
        return meanT(hand) - meanT(host);
    };
    // Host-priority pushes the handler class furthest behind; Fair
    // interleaves grants, closing (most of) the gap.
    EXPECT_LT(gap(MemArbPolicy::Fair), gap(MemArbPolicy::HostPriority));
}

TEST(MemoryController, StaticCapThrottlesHandlerClass)
{
    auto handlerMean = [](double share) {
        SystemConfig cfg;
        cfg.memCtrl.handlerArb = MemArbPolicy::StaticCap;
        cfg.memCtrl.handlerBusShare = share;
        EventQueue eq;
        DramGeometry g = NetDimmDevice::localGeometry(cfg);
        MemoryController mc(eq, "mc", cfg.dram, g, cfg.memCtrl);
        auto host = burst(mc, MemSource::HostCpu, 16, 0);
        auto hand = burst(mc, MemSource::Handler, 16, 1u << 20);
        eq.run();
        (void)host;
        return meanT(hand);
    };
    // A tighter wall-clock budget defers handler beats further.
    EXPECT_GT(handlerMean(0.001), handlerMean(0.9));
}

TEST(MemoryController, LegacyPathBitIdenticalWithoutHandlerTraffic)
{
    // With no handler traffic, host timing does not depend on the
    // arbitration policy: the same host-only burst under each policy
    // completes identically, tick for tick. (The name predates the
    // one scheduler; the separate host-only pick path it refers to
    // no longer exists.)
    auto run = [](MemArbPolicy arb) {
        SystemConfig cfg;
        cfg.memCtrl.handlerArb = arb;
        cfg.memCtrl.handlerBusShare = 0.25;
        EventQueue eq;
        DramGeometry g = NetDimmDevice::localGeometry(cfg);
        MemoryController mc(eq, "mc", cfg.dram, g, cfg.memCtrl);
        auto a = burst(mc, MemSource::HostCpu, 24, 0);
        auto b = burst(mc, MemSource::HostDma, 24, 1u << 21);
        eq.run();
        a.insert(a.end(), b.begin(), b.end());
        return a;
    };
    EXPECT_EQ(run(MemArbPolicy::HostPriority), run(MemArbPolicy::Fair));
    EXPECT_EQ(run(MemArbPolicy::HostPriority),
              run(MemArbPolicy::StaticCap));
}
