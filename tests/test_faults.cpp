/**
 * @file
 * Tests for the fault-injection framework and recovery paths:
 * deterministic fault schedules, ECC error accounting, RowClone
 * fallback, the driver TX-hang watchdog, the EventQueue health layer,
 * and end-to-end survival of a reliable flow across a forced device
 * reset.
 */

#include <gtest/gtest.h>

#include "kernel/NetdimmDriver.hh"
#include "mem/MemoryController.hh"
#include "sim/Fault.hh"
#include "transport/FaultInjector.hh"
#include "workload/IperfFlow.hh"

using namespace netdimm;

namespace
{

struct QuietScope
{
    QuietScope() { setQuiet(true); }
    ~QuietScope() { setQuiet(false); }
};

/** Two NetDIMM nodes on one link. */
struct NodePair
{
    SystemConfig sys;
    EventQueue eq;
    std::unique_ptr<Node> tx, rx;
    std::unique_ptr<EthLink> link;

    explicit NodePair(const SystemConfig &cfg)
        : sys(cfg)
    {
        tx = std::make_unique<Node>(eq, "tx", sys, 0);
        rx = std::make_unique<Node>(eq, "rx", sys, 1);
        link = std::make_unique<EthLink>(eq, "wire", sys.eth);
        connectNodes(*link, *tx, *rx);
    }
};

} // namespace

// ---------------------------------------------------------------------
// Fault framework: deterministic, order-independent schedules
// ---------------------------------------------------------------------

TEST(FaultFramework, ScheduleIndependentOfCreationOrder)
{
    FaultRegistry a(42), b(42);
    // Interleave domain creation in different orders; each domain's
    // stream must depend only on (seed, name).
    FaultDomain &a1 = a.domain("mem");
    FaultDomain &a2 = a.domain("dev");
    FaultDomain &b2 = b.domain("dev");
    FaultDomain &b1 = b.domain("mem");
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a1.uniform(), b1.uniform());
        EXPECT_EQ(a2.uniform(), b2.uniform());
    }
}

TEST(FaultFramework, ConsumptionOfOneDomainDoesNotPerturbAnother)
{
    FaultRegistry a(7), b(7);
    // Burn 500 draws from a's "mem" domain only.
    for (int i = 0; i < 500; ++i)
        a.domain("mem").uniform();
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(a.domain("dev").uniform(), b.domain("dev").uniform());
}

TEST(FaultFramework, DifferentSeedsOrNamesGiveDifferentSchedules)
{
    FaultRegistry a(1), b(2);
    int same_seed_diff = 0, same_name_diff = 0;
    FaultRegistry c(1);
    for (int i = 0; i < 100; ++i) {
        if (a.domain("x").uniform() != b.domain("x").uniform())
            ++same_name_diff;
        if (c.domain("x2").uniform() != c.domain("y2").uniform())
            ++same_seed_diff;
    }
    EXPECT_GT(same_name_diff, 90);
    EXPECT_GT(same_seed_diff, 90);
}

TEST(FaultFramework, SameLeafNameUnderDifferentParentsIsIndependent)
{
    // Hierarchical names: the registry keys domains by the full
    // dotted path, so "a.link" and "b.link" -- the same leaf name
    // under different parents -- must draw from different streams,
    // and a second registry with the same master seed must replay
    // each of them exactly.
    FaultRegistry reg(21), replay(21);
    FaultDomain &a = reg.domain("a.link");
    FaultDomain &b = reg.domain("b.link");
    FaultDomain &ra = replay.domain("a.link");
    FaultDomain &rb = replay.domain("b.link");
    int differs = 0;
    for (int i = 0; i < 200; ++i) {
        double da = a.uniform(), db = b.uniform();
        if (da != db)
            ++differs;
        EXPECT_EQ(da, ra.uniform());
        EXPECT_EQ(db, rb.uniform());
    }
    EXPECT_GT(differs, 190);
}

TEST(FaultFramework, AggregateLedgerClosesOnReplayedFlapSchedules)
{
    // Drive two links from schedules *derived from* registry draws,
    // replay with the same master seed, and check the aggregate
    // ledger: every down edge recovered, identical counts both runs.
    auto run = [](std::uint64_t seed) {
        EventQueue eq;
        EthConfig cfg;
        FaultRegistry reg(seed);
        EthLink la(eq, "a.link", cfg), lb(eq, "b.link", cfg);
        for (EthLink *l : {&la, &lb}) {
            FaultDomain &d = reg.domain(l->name());
            l->setFaultDomain(&d);
            Tick at = 100;
            for (int f = 0; f < 3; ++f) {
                at += 100 + Tick(d.uniform() * 100000);
                Tick dur = 50 + Tick(d.uniform() * 5000);
                l->scheduleFlap(at, dur);
                at += dur;
            }
        }
        eq.run();
        EXPECT_EQ(reg.injected(), 6u);
        EXPECT_TRUE(reg.ledgerClosed());
        return std::make_tuple(reg.injected(), reg.recovered(),
                               reg.unrecovered(), eq.curTick());
    };
    EXPECT_EQ(run(31), run(31));
    EXPECT_NE(std::get<3>(run(31)), std::get<3>(run(32)));
}

TEST(FaultFramework, LedgerCountsInjectionsAndRecoveries)
{
    FaultRegistry reg(3);
    FaultDomain &d = reg.domain("dev");
    EXPECT_FALSE(d.inject(0.0));
    EXPECT_TRUE(d.inject(1.0));
    EXPECT_EQ(d.decisions(), 2u);
    EXPECT_EQ(d.injected(), 1u);
    d.noteRecovered();
    EXPECT_EQ(reg.injected(), 1u);
    EXPECT_EQ(reg.recovered(), 1u);
    EXPECT_EQ(reg.unrecovered(), 0u);
    d.noteUnrecovered();
    EXPECT_EQ(reg.unrecovered(), 1u);
}

TEST(FaultFramework, RegistryBackedFaultInjectorIsDeterministic)
{
    FaultRegistry a(11), b(11);
    FaultInjector ia(a, "wire", 0.1, 0.05);
    FaultInjector ib(b, "wire", 0.1, 0.05);
    for (int i = 0; i < 2000; ++i) {
        PacketPtr p = makePacket(64);
        EXPECT_EQ(int(ia.judge(p)), int(ib.judge(p)));
    }
    EXPECT_GT(ia.framesDropped(), 0u);
    EXPECT_GT(ia.framesCorrupted(), 0u);
    // Drops and corruptions both land in the domain ledger.
    EXPECT_EQ(a.domain("wire").injected(),
              ia.framesDropped() + ia.framesCorrupted());
}

// ---------------------------------------------------------------------
// EventQueue health layer
// ---------------------------------------------------------------------

TEST(EventQueueHealth, DetectsDeadlockWhenWorkOutstanding)
{
    QuietScope q;
    EventQueue eq;
    std::uint64_t outstanding = 1;
    eq.registerHealthProbe("stuck", [&] { return outstanding; });
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_EQ(eq.deadlocksDetected(), 1u);
}

TEST(EventQueueHealth, NoDeadlockWhenProbesReportIdle)
{
    EventQueue eq;
    std::uint64_t outstanding = 1;
    eq.registerHealthProbe("worker", [&] { return outstanding; });
    eq.schedule(100, [&] { outstanding = 0; });
    eq.run();
    EXPECT_EQ(eq.deadlocksDetected(), 0u);
}

TEST(EventQueueHealth, UnregisteredProbeIsIgnored)
{
    EventQueue eq;
    std::size_t id = eq.registerHealthProbe("gone", [] { return 5u; });
    eq.unregisterHealthProbe(id);
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_EQ(eq.deadlocksDetected(), 0u);
}

TEST(EventQueueHealth, TickLimitStopsRunawaySimulation)
{
    QuietScope q;
    EventQueue eq;
    int fired = 0;
    // Self-rescheduling event: would run forever without the limit.
    std::function<void()> again = [&] {
        ++fired;
        eq.scheduleRel(100, again);
    };
    eq.schedule(100, again);
    eq.setTickLimit(1000);
    eq.run();
    EXPECT_TRUE(eq.tickLimitExceeded());
    EXPECT_LE(eq.curTick(), Tick(1000));
    EXPECT_GT(fired, 0);
    EXPECT_LE(fired, 10);
}

// ---------------------------------------------------------------------
// ECC faults at the memory controller
// ---------------------------------------------------------------------

namespace
{

struct McFixture
{
    EventQueue eq;
    SystemConfig cfg;
    FaultRegistry reg{1};
    MemoryController mc;

    McFixture()
        : mc(eq, "mc", cfg.dram, perChannel(cfg.hostMem), cfg.memCtrl)
    {}

    static DramGeometry
    perChannel(DramGeometry g)
    {
        g.channels = 1;
        return g;
    }

    MemRequestPtr
    blockingRead(Addr addr)
    {
        auto req = makeMemRequest(addr, 64, false, MemSource::HostCpu,
                                  nullptr);
        Tick done = 0;
        req->onDone = [&](Tick t) { done = t; };
        mc.access(req);
        eq.run();
        req->issued = done; // stash completion tick for callers
        return req;
    }
};

} // namespace

TEST(MemoryFaults, CorrectableEccDelaysByScrubLatency)
{
    SystemConfig cfg;
    Tick clean;
    {
        McFixture f;
        clean = f.blockingRead(0)->issued;
    }
    McFixture f;
    f.cfg.faults.eccCorrectableProb = 1.0;
    f.mc.setFaultInjection(&f.reg.domain("mem"), &f.cfg.faults);
    MemRequestPtr req = f.blockingRead(0);
    EXPECT_FALSE(req->poisoned);
    EXPECT_EQ(req->issued, clean + f.cfg.faults.eccScrubLatency);
    EXPECT_EQ(f.mc.eccCorrectable(), 1u);
    EXPECT_EQ(f.mc.eccUncorrectable(), 0u);
    // In-line correction counts as recovered immediately.
    EXPECT_EQ(f.reg.domain("mem").recovered(), 1u);
    EXPECT_EQ(f.reg.unrecovered(), 0u);
}

TEST(MemoryFaults, UncorrectableEccPoisonsTheRequest)
{
    McFixture f;
    f.cfg.faults.eccUncorrectableProb = 1.0;
    f.mc.setFaultInjection(&f.reg.domain("mem"), &f.cfg.faults);
    MemRequestPtr req = f.blockingRead(64);
    EXPECT_TRUE(req->poisoned);
    EXPECT_EQ(f.mc.eccUncorrectable(), 1u);
    EXPECT_EQ(f.reg.domain("mem").injected(), 1u);
}

TEST(MemoryFaults, ZeroRateLeavesTimingUntouched)
{
    Tick clean;
    {
        McFixture f;
        clean = f.blockingRead(0)->issued;
    }
    McFixture f;
    f.cfg.faults.eccCorrectableProb = 0.0;
    f.cfg.faults.eccUncorrectableProb = 0.0;
    f.mc.setFaultInjection(&f.reg.domain("mem"), &f.cfg.faults);
    EXPECT_EQ(f.blockingRead(0)->issued, clean);
    EXPECT_GT(f.reg.domain("mem").decisions(), 0u);
    EXPECT_EQ(f.reg.injected(), 0u);
}

// ---------------------------------------------------------------------
// RowClone failure -> CopyEngine fallback
// ---------------------------------------------------------------------

TEST(RowCloneFallback, FailedClonesFallBackAndStillDeliver)
{
    QuietScope q;
    SystemConfig sys;
    sys.nic = NicKind::NetDimm;
    sys.faults.enabled = true;
    sys.faults.rowCloneFailProb = 1.0;
    NodePair p(sys);

    int delivered = 0;
    p.rx->setReceiveHandler(
        [&](const PacketPtr &, Tick) { ++delivered; });
    for (int i = 0; i < 8; ++i)
        p.tx->sendPacket(p.tx->makeTxPacket(1460, p.rx->id()));
    p.eq.run();

    auto &drv = static_cast<NetdimmDriver &>(p.rx->driver());
    EXPECT_EQ(delivered, 8);
    EXPECT_GT(drv.cloneFallbacks(), 0u);
    EXPECT_EQ(drv.cloneFallbacks(),
              p.rx->netdimm()->rowCloneEngine().failedClones());
    // Every aborted clone was recovered by the fallback copy.
    FaultRegistry *reg = p.rx->faults();
    ASSERT_NE(reg, nullptr);
    const FaultDomain *d = reg->find("rx.netdimm.rowclone");
    ASSERT_NE(d, nullptr);
    EXPECT_GT(d->injected(), 0u);
    EXPECT_EQ(d->recovered(), d->injected());
}

// ---------------------------------------------------------------------
// TX-hang watchdog
// ---------------------------------------------------------------------

// Every NIC kind runs the same hang/reset personality (NicDevice) and
// the same watchdog (Driver), so one recovery test covers all five.
class TxWatchdogHang : public ::testing::TestWithParam<NicKind>
{};

TEST_P(TxWatchdogHang, RecoversFromForcedHang)
{
    QuietScope q;
    SystemConfig sys;
    sys.nic = GetParam();
    NodePair p(sys);
    NicDevice *dev = p.tx->endpoint();

    int delivered = 0;
    p.rx->setReceiveHandler(
        [&](const PacketPtr &, Tick) { ++delivered; });

    dev->forceHang();
    p.tx->sendPacket(p.tx->makeTxPacket(1460, p.rx->id()));
    p.eq.run();

    // The watchdog must have detected the stall and reset the device;
    // the hung packet was dropped (raw mode has no retransmission).
    EXPECT_GE(p.tx->driver().txHangRecoveries(), 1u);
    EXPECT_GE(dev->resets(), 1u);
    EXPECT_FALSE(dev->hung());
    EXPECT_EQ(p.tx->driver().skbsDroppedOnReset(), 1u);
    EXPECT_EQ(delivered, 0);
    // Detection takes at least the configured stall age.
    EXPECT_GE(p.tx->driver().recoveryLatencyUs().min(),
              ticksToUs(sys.faults.txHangTimeout) - 1e-9);

    // The interface works again after recovery.
    p.tx->sendPacket(p.tx->makeTxPacket(1460, p.rx->id()));
    p.eq.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(p.eq.deadlocksDetected(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllNics, TxWatchdogHang,
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

TEST(TxWatchdog, DoesNotFireOnHealthyTraffic)
{
    SystemConfig sys;
    sys.nic = NicKind::NetDimm;
    NodePair p(sys);
    p.rx->setReceiveHandler([](const PacketPtr &, Tick) {});
    for (int i = 0; i < 32; ++i)
        p.tx->sendPacket(p.tx->makeTxPacket(1460, p.rx->id()));
    p.eq.run();
    EXPECT_EQ(p.tx->driver().txHangRecoveries(), 0u);
    EXPECT_EQ(p.tx->netdimm()->resets(), 0u);
    EXPECT_EQ(p.eq.deadlocksDetected(), 0u);
}

// ---------------------------------------------------------------------
// End to end: reliable flow across a mid-flow device reset
// ---------------------------------------------------------------------

TEST(EndToEnd, ReliableFlowSurvivesMidFlowDeviceReset)
{
    QuietScope q;
    SystemConfig sys;
    sys.nic = NicKind::NetDimm;
    NodePair p(sys);

    IperfFlow flow(p.eq, "iperf", *p.tx, *p.rx, 1460, 16, 1);
    flow.enableReliable(sys.transport);
    flow.start();

    // Wedge the sender's device mid-flow; the watchdog resets it and
    // the transport's RTO path retransmits whatever was lost.
    p.eq.schedule(usToTicks(300), [&] { p.tx->netdimm()->forceHang(); });
    p.eq.run(usToTicks(1500));
    flow.stop();
    p.eq.run();

    EXPECT_GE(p.tx->driver().txHangRecoveries(), 1u);
    EXPECT_GE(p.tx->netdimm()->resets(), 1u);
    EXPECT_FALSE(p.tx->netdimm()->hung());
    EXPECT_GT(flow.retransmissions(), 0u);
    EXPECT_EQ(flow.abortedFlows(), 0u);
    // 100% delivery, no duplicates: the receiver delivered exactly the
    // bytes the sender enqueued, each segment exactly once.
    EXPECT_GT(flow.enqueuedBytes(), 0u);
    EXPECT_EQ(flow.deliveredBytes(), flow.enqueuedBytes());
    EXPECT_EQ(p.eq.deadlocksDetected(), 0u);
}

// ---------------------------------------------------------------------
// Whole-sim determinism under faults
// ---------------------------------------------------------------------

namespace
{

struct ReplayStats
{
    std::uint64_t delivered = 0;
    std::uint64_t injected = 0;
    std::uint64_t retx = 0;
    Tick endTick = 0;

    bool
    operator==(const ReplayStats &o) const
    {
        return delivered == o.delivered && injected == o.injected &&
               retx == o.retx && endTick == o.endTick;
    }
};

ReplayStats
runFaultyReplay(std::uint64_t seed)
{
    SystemConfig sys;
    sys.nic = NicKind::NetDimm;
    sys.seed = seed;
    sys.faults.enabled = true;
    sys.faults.eccCorrectableProb = 0.005;
    sys.faults.dmaDropProb = 0.002;
    sys.faults.rowCloneFailProb = 0.01;
    NodePair p(sys);

    IperfFlow flow(p.eq, "iperf", *p.tx, *p.rx, 1460, 16, 1);
    flow.enableReliable(sys.transport);
    flow.start();
    p.eq.run(usToTicks(400));
    flow.stop();
    p.eq.run();

    ReplayStats r;
    r.delivered = flow.deliveredBytes();
    r.retx = flow.retransmissions();
    r.injected =
        p.tx->faults()->injected() + p.rx->faults()->injected();
    r.endTick = p.eq.curTick();
    return r;
}

} // namespace

TEST(FaultReplay, SameSeedReproducesTheSameRun)
{
    QuietScope q;
    ReplayStats a = runFaultyReplay(9);
    ReplayStats b = runFaultyReplay(9);
    EXPECT_TRUE(a == b);
    EXPECT_GT(a.injected, 0u);
    EXPECT_GT(a.delivered, 0u);

    ReplayStats c = runFaultyReplay(10);
    // A different seed must give a different fault schedule (the
    // counts colliding on every stat at once is vanishingly likely).
    EXPECT_FALSE(a == c);
}
