/**
 * @file
 * Unit tests for the DDR memory controller model: idle latency, row
 * buffer behaviour, bandwidth ceiling, bus reservation and bank
 * occupation (the RowClone hooks), and per-source accounting.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mem/MemoryController.hh"

using namespace netdimm;

namespace
{

struct Fixture
{
    EventQueue eq;
    SystemConfig cfg;
    MemoryController mc;

    Fixture()
        : mc(eq, "mc", cfg.dram, perChannel(cfg.hostMem), cfg.memCtrl)
    {}

    static DramGeometry
    perChannel(DramGeometry g)
    {
        g.channels = 1;
        return g;
    }

    Tick
    blockingRead(Addr addr, std::uint32_t size = 64)
    {
        Tick done = 0;
        auto req = makeMemRequest(addr, size, false, MemSource::HostCpu,
                                  [&](Tick t) { done = t; });
        mc.access(req);
        eq.run();
        return done;
    }
};

} // namespace

TEST(MemoryController, IdleReadLatencyMatchesAnalytic)
{
    Fixture f;
    Tick done = f.blockingRead(0);
    EXPECT_EQ(done, f.mc.idleReadLatency());
    // DDR4-2400: ~10ns FE + (17+17+4)*0.833 + 6ns BE ~= 47ns.
    EXPECT_NEAR(ticksToNs(done), 47.0, 3.0);
}

TEST(MemoryController, RowHitIsFasterThanRowMiss)
{
    Fixture f;
    Tick first = f.blockingRead(0); // opens the row
    Tick t0 = f.eq.curTick();
    Tick hit = f.blockingRead(64) - t0; // same row
    // A far-away address in the same bank needs precharge+activate.
    // Same (bank, sub-array) repeats every 128KB; the next page slot
    // within the sub-array is a different row.
    Tick t1 = f.eq.curTick();
    Tick miss = f.blockingRead(128 * 1024) - t1;
    EXPECT_LT(hit, first);
    EXPECT_GT(miss, hit);
    EXPECT_GE(f.mc.rowHits(), 1u);
    EXPECT_GE(f.mc.rowMisses(), 2u);
}

TEST(MemoryController, StreamingSaturatesNearChannelBandwidth)
{
    Fixture f;
    // Issue 4MB of sequential reads in one shot.
    const std::uint32_t req_size = 4096;
    const int nreq = 1024;
    Tick last = 0;
    int done = 0;
    for (int i = 0; i < nreq; ++i) {
        auto req = makeMemRequest(Addr(i) * req_size, req_size, false,
                                  MemSource::HostCpu, [&](Tick t) {
                                      last = std::max(last, t);
                                      ++done;
                                  });
        f.mc.access(req);
    }
    f.eq.run();
    EXPECT_EQ(done, nreq);
    double secs = ticksToSec(last);
    double gbps = double(nreq) * req_size / secs / 1e9;
    // DDR4-2400 channel peak = 19.2 GB/s; expect well over half of
    // it and never above it.
    EXPECT_GT(gbps, 10.0);
    EXPECT_LE(gbps, 19.3);
    EXPECT_GT(f.mc.busUtilization(), 0.5);
}

TEST(MemoryController, MultiBeatRequestCompletesOnce)
{
    Fixture f;
    int completions = 0;
    auto req = makeMemRequest(0, 1024, false, MemSource::HostCpu,
                              [&](Tick) { ++completions; });
    f.mc.access(req);
    f.eq.run();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(f.mc.beatsServiced(), 16u);
}

TEST(MemoryController, ReserveBusDelaysSubsequentAccesses)
{
    Fixture f;
    Tick hold = nsToTicks(500);
    Tick slot = f.mc.reserveBus(0, hold);
    EXPECT_EQ(slot, 0u);
    Tick done = f.blockingRead(0);
    EXPECT_GE(done, hold);
}

TEST(MemoryController, ReserveBusSlotsAreExclusive)
{
    Fixture f;
    Tick s1 = f.mc.reserveBus(0, 100);
    Tick s2 = f.mc.reserveBus(0, 100);
    EXPECT_GE(s2, s1 + 100);
}

TEST(MemoryController, OccupyBankBlocksThatBankOnly)
{
    Fixture f;
    Tick until = nsToTicks(1000);
    DramAddress da0 = f.mc.decoder().decode(0);
    f.mc.occupyBank(da0.rank, da0.bank, until);

    Tick done_blocked = f.blockingRead(0);
    EXPECT_GT(done_blocked, until);

    // A different bank is unaffected. Consecutive pages land on
    // different banks under the Fig. 9 striping.
    DramAddress da1 = f.mc.decoder().decode(pageBytes);
    ASSERT_FALSE(da0.sameBank(da1));
    Tick t0 = f.eq.curTick();
    Tick done_free = f.blockingRead(pageBytes);
    EXPECT_LT(done_free - t0, until);
}

TEST(MemoryController, SourceStatsSeparateReadsAndWrites)
{
    Fixture f;
    auto rd = makeMemRequest(0, 64, false, MemSource::HostCpu, nullptr);
    auto wr =
        makeMemRequest(4096, 128, true, MemSource::NetDimmNic, nullptr);
    f.mc.access(rd);
    f.mc.access(wr);
    f.eq.run();
    EXPECT_EQ(f.mc.sourceStats(MemSource::HostCpu).bytesRead.value(),
              64u);
    EXPECT_EQ(
        f.mc.sourceStats(MemSource::NetDimmNic).bytesWritten.value(),
        128u);
    EXPECT_EQ(f.mc.sourceStats(MemSource::HostDma).bytesRead.value(),
              0u);
    EXPECT_GT(f.mc.meanReadLatencyNs(), 0.0);
}

TEST(MemoryController, TraceHookSeesEveryBeat)
{
    Fixture f;
    std::vector<Addr> lines;
    f.mc.setTraceHook([&](Tick, Addr a, bool w, MemSource) {
        EXPECT_FALSE(w);
        lines.push_back(a);
    });
    auto req = makeMemRequest(0, 256, false, MemSource::HostDma, nullptr);
    f.mc.access(req);
    f.eq.run();
    ASSERT_EQ(lines.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(lines[std::size_t(i)], Addr(i) * 64);
}

TEST(MemoryController, WritesEventuallyComplete)
{
    Fixture f;
    int done = 0;
    for (int i = 0; i < 100; ++i) {
        auto wr = makeMemRequest(Addr(i) * 64, 64, true,
                                 MemSource::HostCpu,
                                 [&](Tick) { ++done; });
        f.mc.access(wr);
    }
    f.eq.run();
    EXPECT_EQ(done, 100);
}

TEST(MemoryController, LatencyGrowsUnderLoad)
{
    Fixture f;
    // Measure a lone read.
    Tick lone = f.blockingRead(0);

    // Now pile up a large burst and measure a read behind it.
    for (int i = 0; i < 256; ++i) {
        auto req = makeMemRequest(Addr(i) * 4096, 4096, false,
                                  MemSource::HostDma, nullptr);
        f.mc.access(req);
    }
    Tick t0 = f.eq.curTick();
    Tick loaded = f.blockingRead(64) - t0;
    EXPECT_GT(loaded, lone);
}

namespace
{

struct IssueOrder
{
    Addr oldest;              ///< line of the first-enqueued read
    std::vector<Addr> issued; ///< lines in issue order
};

/**
 * Open one row, then enqueue in a single tick @p misses reads to
 * distinct other banks followed by one read (line 64) that hits the
 * open row, and, when @p handler is set, a handler-class read behind
 * them.
 */
IssueOrder
rowHitIssueOrder(std::size_t misses, bool handler)
{
    Fixture f;
    const DimmDecoder &dec = f.mc.decoder();
    f.blockingRead(0);
    std::uint64_t hitsBefore = f.mc.rowHits();

    std::set<std::uint32_t> banks{dec.decode(0).bank};
    std::vector<Addr> reads;
    for (Addr a = pageBytes; reads.size() < misses + handler;
         a += pageBytes) {
        if (banks.insert(dec.decode(a).bank).second)
            reads.push_back(a);
    }
    IssueOrder out{misses ? reads[0] : Addr(64), {}};
    f.mc.setTraceHook([&](Tick, Addr a, bool, MemSource) {
        out.issued.push_back(a);
    });
    for (std::size_t i = 0; i < misses; ++i)
        f.mc.access(makeMemRequest(reads[i], 64, false,
                                   MemSource::HostDma, nullptr));
    f.mc.access(
        makeMemRequest(64, 64, false, MemSource::HostDma, nullptr));
    if (handler)
        f.mc.access(makeMemRequest(reads[misses], 64, false,
                                   MemSource::Handler, nullptr));
    f.eq.run();

    EXPECT_EQ(out.issued.size(), misses + 1 + handler);
    EXPECT_EQ(f.mc.rowHits() - hitsBefore, 1u);
    return out;
}

} // namespace

TEST(MemoryController, RowHitScanWindowIsEightReadyBeats)
{
    // The picker prefers a row hit among the first 8 ready beats of a
    // class, else the class's oldest ready beat. Checked host-only
    // (eager issue) and with a handler beat queued (lazy issue,
    // HostPriority).
    for (bool handler : {false, true}) {
        SCOPED_TRACE(handler ? "handler beat queued" : "host only");
        // Hit at the 3rd ready beat: issued first.
        IssueOrder near = rowHitIssueOrder(2, handler);
        ASSERT_FALSE(near.issued.empty());
        EXPECT_EQ(near.issued[0], Addr(64));
        // Hit at the 9th ready beat: the oldest ready beat goes
        // first; then the hit is inside the window and goes next.
        IssueOrder far = rowHitIssueOrder(8, handler);
        ASSERT_GE(far.issued.size(), 2u);
        EXPECT_EQ(far.issued[0], far.oldest);
        EXPECT_EQ(far.issued[1], Addr(64));
    }
}

TEST(MemoryController, OneServiceEventPendingUnderLazyIssue)
{
    // HostPriority with handler beats queued issues lazily: between
    // beats the controller parks one service event at the next bus
    // admission point. A host read arriving underneath that wakeup
    // pulls service forward; the parked event must be cancelled, not
    // left to start a second self-rescheduling service chain. With
    // one chain per pull-forward the event count grows with the
    // product of host arrivals and queued beats instead of their sum.
    Fixture f;
    ASSERT_EQ(f.cfg.memCtrl.handlerArb, MemArbPolicy::HostPriority);
    const int handlerReqs = 256; // 4 KiB each: 64 beats apiece
    const int hostReads = 200;
    for (int i = 0; i < handlerReqs; ++i)
        f.mc.access(makeMemRequest(Addr(i) * 4096, 4096, false,
                                   MemSource::Handler, nullptr));
    for (int i = 0; i < hostReads; ++i) {
        f.eq.schedule(nsToTicks(20) * Tick(i + 1), [&f, i] {
            f.mc.access(makeMemRequest(Addr(1) << 30 | Addr(i) * 64,
                                       64, false, MemSource::HostCpu,
                                       nullptr));
        });
    }
    std::uint64_t executed = f.eq.run();

    const std::uint64_t beats =
        std::uint64_t(handlerReqs) * 64 + std::uint64_t(hostReads);
    ASSERT_EQ(f.mc.beatsServiced(), beats);
    EXPECT_LE(executed, 2 * beats);
}
