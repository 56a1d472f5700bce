/**
 * @file
 * Unit tests for the DDR memory controller model: idle latency, row
 * buffer behaviour, bandwidth ceiling, bus reservation and bank
 * occupation (the RowClone hooks), and per-source accounting.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cache/Llc.hh"
#include "mem/MemoryController.hh"
#include "mem/MemorySystem.hh"
#include "sim/Fault.hh"
#include "sim/Random.hh"

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

TEST(MemoryControllerDeath, QueuedRequestCannotEnterASecondController)
{
    // The outstanding-beat count lives in the request, so a request
    // still queued in one controller must not be handed to another.
    Fixture f;
    MemoryController other(f.eq, "mc2", f.cfg.dram,
                           Fixture::perChannel(f.cfg.hostMem),
                           f.cfg.memCtrl);
    auto req = makeMemRequest(0, 128, false, MemSource::HostCpu);
    f.mc.access(req);
    EXPECT_DEATH(other.access(req), "beatsLeft == 0");
    // Once it has completed, the request may be submitted again.
    f.eq.run();
    other.access(req);
    f.eq.run();
    EXPECT_EQ(other.beatsServiced(), 2u);
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

namespace
{

/** 64-bit FNV-1a over a stream of integers (8 bytes each). */
struct Fnv
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::uint64_t count = 0;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    }
};

/** Digests of every issued beat and every delivered completion. */
struct Schedule
{
    Fnv beats; ///< (bus tick, line, write, source) per beat
    Fnv dones; ///< (tick, poisoned) or (tick) per completion
};

/**
 * A seeded random request stream through one controller: 1-4-line
 * reads and writes from host and handler sources, arriving in
 * clusters, with a burst of 64 write beats in one tick every 64
 * requests (past the 48-beat drain watermark) and ECC injection on.
 */
Schedule
seededControllerStream(MemArbPolicy arb, std::uint64_t seed)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.memCtrl.handlerArb = arb;
    cfg.memCtrl.handlerBusShare = 0.25;
    cfg.faults.eccCorrectableProb = 0.02;
    cfg.faults.eccUncorrectableProb = 0.01;
    DramGeometry g = cfg.hostMem;
    g.channels = 1;
    MemoryController mc(eq, "mc", cfg.dram, g, cfg.memCtrl);
    FaultDomain ecc("mc.ecc", seed);
    mc.setFaultInjection(&ecc, &cfg.faults);

    Schedule s;
    mc.setTraceHook([&s](Tick t, Addr a, bool w, MemSource src) {
        s.beats.add(t);
        s.beats.add(a);
        s.beats.add(w);
        s.beats.add(std::uint64_t(src));
        ++s.beats.count;
    });

    Random rng(seed);
    const MemSource sources[] = {MemSource::HostCpu, MemSource::HostDma,
                                 MemSource::Handler};
    auto submit = [&](Addr addr, std::uint32_t lines, bool write,
                      MemSource src) {
        auto req = makeMemRequest(addr, lines * 64, write, src);
        // The controller keeps the request alive until its completion
        // runs, so a raw pointer can read the poisoned flag there.
        MemRequest *raw = req.get();
        req->onDone = [&s, raw](Tick t) {
            s.dones.add(t);
            s.dones.add(raw->poisoned);
            ++s.dones.count;
        };
        mc.access(req);
    };
    Tick at = 0;
    for (int i = 0; i < 2000; ++i) {
        // Clustered arrivals: a third land in the previous tick.
        if (!rng.bernoulli(0.35))
            at += nsToTicks(double(rng.uniformInt(1, 40)));
        // A few hot rows plus scattered lines, so row hits and
        // misses both occur.
        Addr line = rng.bernoulli(0.5)
                        ? rng.uniformInt(0, 7) * 2048 +
                              rng.uniformInt(0, 31)
                        : rng.uniformInt(0, (1u << 22) - 1);
        std::uint32_t lines = std::uint32_t(rng.uniformInt(1, 4));
        bool write = rng.bernoulli(0.4);
        MemSource src = sources[rng.uniformInt(0, 2)];
        bool drainBurst = i % 64 == 63;
        eq.schedule(at, [=, &submit, &rng] {
            submit(line * 64, lines, write, src);
            if (!drainBurst)
                return;
            for (int w = 0; w < 16; ++w)
                submit(rng.uniformInt(0, (1u << 22) - 1) * 64, 4, true,
                       MemSource::HostCpu);
        });
    }
    eq.run();
    return s;
}

} // namespace

TEST(MemoryController, BeatScheduleIsPinned)
{
    // Every beat's bus tick and every completion's tick and poison
    // flag, under each arbitration policy, are pinned to recorded
    // digests: a change to how the controller keeps its per-request
    // and per-beat state must move neither a beat nor a completion.
    struct Pin
    {
        MemArbPolicy arb;
        std::uint64_t beats, beatHash, dones, doneHash;
    };
    const Pin pins[] = {
        {MemArbPolicy::HostPriority, 6957, 0x1be5ce2743a98589ull, 2496,
         0xe0a3a7112c0091bdull},
        {MemArbPolicy::Fair, 6957, 0xf2651407644483ccull, 2496,
         0x2279bd4a09b40198ull},
        {MemArbPolicy::StaticCap, 6957, 0x1dccf53ff78f34f7ull, 2496,
         0x6d59e4a78456469bull},
    };
    for (const Pin &p : pins) {
        SCOPED_TRACE(int(p.arb));
        Schedule s = seededControllerStream(p.arb, 7);
        EXPECT_EQ(s.beats.count, p.beats);
        EXPECT_EQ(s.beats.hash, p.beatHash);
        EXPECT_EQ(s.dones.count, p.dones);
        EXPECT_EQ(s.dones.hash, p.doneHash);
    }
}

TEST(MemoryController, SplitAndJoinScheduleIsPinned)
{
    // MemorySystem requests that cross a 256 B stripe (split across
    // channels, joined on completion) and multi-line Llc accesses
    // (joined per line, some lines hitting) over every host channel,
    // pinned like BeatScheduleIsPinned.
    EventQueue eq;
    SystemConfig cfg;
    MemorySystem mem(eq, "mem", cfg);
    Llc llc(eq, "llc", cfg.llc, cfg.cpu, mem);
    Schedule s;
    for (std::uint32_t c = 0; c < mem.numChannels(); ++c) {
        mem.channel(c).setTraceHook(
            [&s, c](Tick t, Addr a, bool w, MemSource src) {
                s.beats.add(c);
                s.beats.add(t);
                s.beats.add(a);
                s.beats.add(w);
                s.beats.add(std::uint64_t(src));
                ++s.beats.count;
            });
    }
    auto done = [&s](Tick t) {
        s.dones.add(t);
        ++s.dones.count;
    };

    Random rng(11);
    const Addr stripe = HostAddressMap::stripeBytes;
    Tick at = 0;
    for (int i = 0; i < 1500; ++i) {
        at += nsToTicks(double(rng.uniformInt(0, 30)));
        bool viaLlc = rng.bernoulli(0.5);
        bool write = rng.bernoulli(0.3);
        std::uint32_t lines = std::uint32_t(rng.uniformInt(1, 4));
        // A small footprint so the LLC sees hits as well as misses;
        // direct requests start up to two lines before a stripe end.
        Addr addr =
            viaLlc ? rng.uniformInt(0, 4095) * 64
                   : rng.uniformInt(1, 1u << 16) * stripe -
                         rng.uniformInt(1, 128);
        eq.schedule(at, [=, &mem, &llc] {
            auto req = makeMemRequest(addr, lines * 64, write,
                                      MemSource::HostCpu, done);
            if (viaLlc)
                llc.access(req);
            else
                mem.access(req);
        });
    }
    eq.run();
    EXPECT_EQ(s.dones.count, 1500u);
    EXPECT_EQ(s.beats.count, 4127u);
    EXPECT_EQ(s.beats.hash, 0xf5f3cc481356175cull);
    EXPECT_EQ(s.dones.hash, 0x29f1f1119d040540ull);
}
