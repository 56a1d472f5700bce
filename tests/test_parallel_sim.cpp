/**
 * @file
 * Tests for the pod-sharded PDES driver (DESIGN.md §16): the SPSC
 * shard channel, the conservative quantum protocol, determinism of
 * the sharded decomposition against the monolithic golden.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "harness/LatencyHistogram.hh"
#include "net/Topology.hh"
#include "sim/Logging.hh"
#include "sim/ParallelSim.hh"
#include "sim/ShardChannel.hh"

using namespace netdimm;

// -- ShardChannel ----------------------------------------------------

TEST(ShardChannel, SingleThreadFifo)
{
    ShardChannel<int> ch;
    EXPECT_EQ(ch.front(), nullptr);

    for (int i = 0; i < 10; ++i)
        ch.push(i);
    for (int i = 0; i < 10; ++i) {
        const int *v = ch.front();
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, i);
        ch.pop();
    }
    EXPECT_EQ(ch.front(), nullptr);
    EXPECT_EQ(ch.pushes(), 10u);
    EXPECT_EQ(ch.pops(), 10u);
}

TEST(ShardChannel, CrossesChunkBoundaries)
{
    // Push through several chunks before draining: entries must
    // survive the chunk hand-off, in order.
    ShardChannel<std::uint64_t, 16> ch;
    const std::uint64_t n = 100; // > 6 chunks of 16
    for (std::uint64_t i = 0; i < n; ++i)
        ch.push(i);
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t *v = ch.front();
        ASSERT_NE(v, nullptr) << "entry " << i;
        EXPECT_EQ(*v, i);
        ch.pop();
    }
    EXPECT_EQ(ch.front(), nullptr);
}

TEST(ShardChannel, RecyclesChunksInSteadyState)
{
    // Interleaved push/pop traffic far exceeding one chunk must reuse
    // retired chunks instead of growing the heap.
    ShardChannel<std::uint64_t, 16> ch;
    for (std::uint64_t round = 0; round < 200; ++round) {
        for (std::uint64_t i = 0; i < 24; ++i)
            ch.push(round * 24 + i);
        while (ch.front() != nullptr)
            ch.pop();
    }
    EXPECT_EQ(ch.pushes(), 200u * 24);
    EXPECT_EQ(ch.pops(), ch.pushes());
    // 200 rounds x 24 entries through 16-slot chunks would be ~300
    // chunks without recycling; steady state needs only a handful.
    EXPECT_LE(ch.chunkAllocs(), 8u);
}

TEST(ShardChannel, DestructorReleasesUndrainedEntries)
{
    // Entries still in flight at teardown are destroyed, not leaked
    // (ASan/LSan would flag the leak; shared_ptr proves destructors
    // run).
    auto token = std::make_shared<int>(7);
    {
        ShardChannel<std::shared_ptr<int>, 4> ch;
        for (int i = 0; i < 10; ++i)
            ch.push(token);
        ch.pop(); // consume one, leave nine across chunks
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(ShardChannel, TwoThreadStress)
{
    // Producer floods sequenced values while the consumer drains
    // concurrently; FIFO order and completeness must survive chunk
    // hand-offs under real contention. (TSan-clean is part of the
    // contract; the tsan CI job runs this.)
    const std::uint64_t n = 200000;
    ShardChannel<std::uint64_t, 64> ch;
    std::thread producer([&] {
        for (std::uint64_t i = 0; i < n; ++i)
            ch.push(i);
    });
    std::uint64_t expect = 0;
    while (expect < n) {
        const std::uint64_t *v = ch.front();
        if (v == nullptr)
            continue;
        ASSERT_EQ(*v, expect);
        ch.pop();
        ++expect;
    }
    producer.join();
    EXPECT_EQ(ch.front(), nullptr);
    EXPECT_EQ(ch.pushes(), n);
    EXPECT_EQ(ch.pops(), n);
}

// -- ParallelSim protocol --------------------------------------------

TEST(ParallelSim, NullRunAdvancesAllShardsToHorizon)
{
    // No traffic: every shard still steps ceil(horizon/quantum)
    // quanta (the implicit null-message exchange) and executes
    // nothing.
    for (auto mode : {ParallelSim::Mode::DeterministicMerge,
                      ParallelSim::Mode::FreeRun}) {
        ParallelSim sim(4, 1000, mode);
        sim.run(10500, [](ShardHost &) {});
        ASSERT_EQ(sim.shardStats().size(), 4u);
        for (const ShardRunStats &s : sim.shardStats()) {
            EXPECT_EQ(s.quanta, 11u); // ceil(10500 / 1000)
            EXPECT_EQ(s.executed, 0u);
            EXPECT_EQ(s.pumped, 0u);
        }
        EXPECT_EQ(sim.totalExecuted(), 0u);
    }
}

TEST(ParallelSim, LocalEventsRunOnOwningShard)
{
    // Each shard schedules its own events; counters come back per
    // shard and the build callback sees the right ids.
    ParallelSim sim(2, 100, ParallelSim::Mode::FreeRun);
    std::atomic<std::uint64_t> fired{0};
    sim.run(1000, [&fired](ShardHost &host) {
        unsigned id = host.shardId();
        EXPECT_LT(id, host.shards());
        for (Tick t = id; t < 900; t += 7)
            host.eventq().schedule(t, [&fired] {
                fired.fetch_add(1, std::memory_order_relaxed);
            });
    });
    EXPECT_EQ(sim.totalExecuted(),
              fired.load(std::memory_order_relaxed));
    EXPECT_GT(sim.totalExecuted(), 0u);
}

TEST(ParallelSim, ShardHostTimeSplitsIntoBusyPumpAndWait)
{
    // Shard 0 spins 200 us of host time in each of its 10 quanta;
    // shard 1 has no events, so free-running it can only block on
    // shard 0's promises. Merge mode steps shards back to back on one
    // thread and never waits.
    using Clock = std::chrono::steady_clock;
    const auto spin = std::chrono::microseconds(200);
    for (auto mode : {ParallelSim::Mode::DeterministicMerge,
                      ParallelSim::Mode::FreeRun}) {
        ParallelSim sim(2, 100, mode);
        Clock::time_point t0 = Clock::now();
        sim.run(1000, [spin](ShardHost &host) {
            if (host.shardId() != 0)
                return;
            for (Tick t = 0; t < 1000; t += 100)
                host.eventq().schedule(t, [spin] {
                    Clock::time_point end = Clock::now() + spin;
                    while (Clock::now() < end) {
                    }
                });
        });
        std::uint64_t wallNs = std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());

        const std::vector<ShardRunStats> &st = sim.shardStats();
        EXPECT_GE(st[0].busyNs, 10u * 200000u);
        for (const ShardRunStats &s : st)
            EXPECT_LE(s.busyNs + s.pumpNs + s.waitNs, wallNs);
        if (mode == ParallelSim::Mode::DeterministicMerge) {
            EXPECT_EQ(st[0].waitNs, 0u);
            EXPECT_EQ(st[1].waitNs, 0u);
        } else {
            EXPECT_GT(st[1].waitNs, 0u);
        }
    }
}

TEST(ParallelSimDeath, RejectsZeroShardsAndDoubleRun)
{
    EXPECT_DEATH(ParallelSim(0, 100,
                             ParallelSim::Mode::DeterministicMerge),
                 "shard");
    EXPECT_DEATH(ParallelSim(2, 0,
                             ParallelSim::Mode::DeterministicMerge),
                 "quantum");
    ParallelSim sim(1, 100, ParallelSim::Mode::DeterministicMerge);
    sim.run(100, [](ShardHost &) {});
    EXPECT_DEATH(sim.run(100, [](ShardHost &) {}), "one-shot");
}

// -- Sharded fabric determinism --------------------------------------

namespace
{

/** Per-run aggregate that must be shard-count- and mode-invariant. */
struct TrafficResult
{
    std::string digest;
    std::uint64_t sent = 0;
    std::uint64_t rcvd = 0;
    std::uint64_t fabric = 0;
    std::uint64_t executed = 0;
};

/**
 * Deterministic many-to-many workload on a PodFabricSpec-shaped
 * fabric. Born ticks are globally unique (node-striped slots inside
 * each gap window) so no two frames ever race for the same egress at
 * the same tick — the property that makes byte-identity exact (see
 * DESIGN.md §16).
 */
struct TestSender : NetEndpoint
{
    EventQueue &eq;
    const PodFabricSpec &spec;
    std::uint32_t id;
    std::uint32_t frames;
    Tick gap;
    EthLink *access = nullptr;
    LatencyHistogram *hist = nullptr;
    std::uint64_t *sent = nullptr;
    std::uint64_t *rcvd = nullptr;

    TestSender(EventQueue &eq_, const PodFabricSpec &spec_,
               std::uint32_t id_, std::uint32_t frames_, Tick gap_)
        : eq(eq_), spec(spec_), id(id_), frames(frames_), gap(gap_)
    {
    }

    Tick
    born(std::uint32_t i) const
    {
        Tick slot = gap / spec.totalNodes();
        return usToTicks(1) + Tick(i) * gap + Tick(id) * slot +
               (std::uint64_t(id) * 2654435761u + i * 40503u) %
                   slot;
    }

    void
    start()
    {
        eq.schedule(born(0), [this] { fire(0); });
    }

    void
    fire(std::uint32_t i)
    {
        // Cycle destinations across every other leaf so frames cross
        // both pod and spine shard boundaries.
        std::uint32_t n = spec.totalNodes();
        std::uint32_t dst = (id + 1 + (i * 37) % (n - 1)) % n;
        if (dst == id)
            dst = (dst + 1) % n;
        PacketPtr pkt = makePacket(eq, 512, id, dst);
        pkt->flowId = std::uint64_t(id) * frames + i;
        pkt->born = eq.curTick();
        ++*sent;
        access->send(this, pkt);
        if (i + 1 < frames)
            eq.schedule(born(i + 1), [this, i] { fire(i + 1); });
    }

    void
    deliver(const PacketPtr &pkt) override
    {
        hist->sample(eq.curTick() - pkt->born);
        ++*rcvd;
    }
};

PodFabricSpec
testSpec()
{
    PodFabricSpec spec;
    spec.pods = 4;
    spec.leavesPerPod = 2;
    spec.spines = 4;
    spec.nodesPerLeaf = 4; // 32 nodes
    spec.eth.switchQueueFrames = 0; // lossless: sent must == rcvd
    spec.eth.ecnThresholdFrames = 0;
    return spec;
}

constexpr std::uint32_t kFrames = 24;
constexpr Tick kGap = usToTicks(2);
constexpr Tick kHorizon = usToTicks(1) + kFrames * kGap +
                          usToTicks(200);

/**
 * The monolithic golden: this fabric shape and workload on the
 * original single-EventQueue leaf-spine builder, which PodFabricShard
 * replaced. Its output is committed here so every run below keeps
 * matching that builder rather than only itself.
 */
const TrafficResult kMonolithicGolden{
    .digest = "lhist bits=7 n=768 min=414400 max=1128878 "
              "sum=682789647;869:80 945:505 949:18 951:121 954:6 "
              "956:31 961:4 962:2 964:1 ",
    .sent = 768,
    .rcvd = 768,
    .fabric = 2144,
    .executed = 7968,
};

/** The same fabric and workload on one EventQueue, through the
 *  single-queue PodFabricShard constructor. */
TrafficResult
runSingleQueue()
{
    PodFabricSpec spec = testSpec();
    EventQueue eq;
    PodFabricShard topo(eq, "mono", spec);
    LatencyHistogram hist;
    std::uint64_t sent = 0, rcvd = 0;
    std::vector<std::unique_ptr<TestSender>> nodes;
    for (std::uint32_t n = 0; n < spec.totalNodes(); ++n) {
        auto node = std::make_unique<TestSender>(eq, spec, n,
                                                 kFrames, kGap);
        node->access = &topo.attach(n, node.get());
        node->hist = &hist;
        node->sent = &sent;
        node->rcvd = &rcvd;
        node->start();
        nodes.push_back(std::move(node));
    }
    TrafficResult r;
    r.executed = eq.runUntil(kHorizon);
    r.digest = hist.digest();
    r.sent = sent;
    r.rcvd = rcvd;
    r.fabric = topo.fabricFrames();
    return r;
}

TrafficResult
runSharded(unsigned shards, ParallelSim::Mode mode)
{
    PodFabricSpec spec = testSpec();
    ParallelSim sim(shards, spec.lookahead(), mode);
    struct Slice
    {
        std::string digest;
        std::uint64_t sent = 0, rcvd = 0, fabric = 0;
    };
    std::vector<Slice> slices(shards);
    LatencyHistogram merged; // merged from per-shard digests below

    std::vector<LatencyHistogram> hists(shards);
    sim.run(kHorizon, [&spec, &slices, &hists](ShardHost &host) {
        struct Ctx
        {
            std::unique_ptr<PodFabricShard> fabric;
            std::vector<std::unique_ptr<TestSender>> nodes;
            LatencyHistogram hist;
            std::uint64_t sent = 0, rcvd = 0;
        };
        auto ctx = std::make_shared<Ctx>();
        ctx->fabric = std::make_unique<PodFabricShard>(host, "fab",
                                                       spec);
        for (std::uint32_t n = 0; n < spec.totalNodes(); ++n) {
            if (!ctx->fabric->ownsNode(n))
                continue;
            auto node = std::make_unique<TestSender>(
                host.eventq(), spec, n, kFrames, kGap);
            node->access = &ctx->fabric->attach(n, node.get());
            node->hist = &ctx->hist;
            node->sent = &ctx->sent;
            node->rcvd = &ctx->rcvd;
            node->start();
            ctx->nodes.push_back(std::move(node));
        }
        Slice *slice = &slices[host.shardId()];
        LatencyHistogram *hist = &hists[host.shardId()];
        host.atEnd([ctx, slice, hist] {
            *hist = ctx->hist;
            slice->sent = ctx->sent;
            slice->rcvd = ctx->rcvd;
            slice->fabric = ctx->fabric->fabricFrames();
        });
        host.hold(std::move(ctx));
    });

    TrafficResult r;
    for (unsigned s = 0; s < shards; ++s) {
        merged.merge(hists[s]);
        r.sent += slices[s].sent;
        r.rcvd += slices[s].rcvd;
        r.fabric += slices[s].fabric;
    }
    r.digest = merged.digest();
    for (const ShardRunStats &s : sim.shardStats())
        r.executed += s.executed;
    return r;
}

} // namespace

TEST(ParallelSim, ShardedFabricMatchesMonolithicGolden)
{
    // The heart of the determinism contract: the pod-sharded
    // decomposition at ANY shard count, in BOTH modes, and the
    // single-queue fabric reproduce the monolithic golden
    // byte-for-byte — same latency population (exact digest), same
    // frame counts, same event count.
    setQuiet(true);
    const TrafficResult &golden = kMonolithicGolden;
    ASSERT_EQ(golden.rcvd, golden.sent); // lossless config

    auto expectGolden = [&golden](const TrafficResult &r,
                                  const std::string &what) {
        EXPECT_EQ(r.digest, golden.digest) << what;
        EXPECT_EQ(r.sent, golden.sent) << what;
        EXPECT_EQ(r.rcvd, golden.rcvd) << what;
        EXPECT_EQ(r.fabric, golden.fabric) << what;
        EXPECT_EQ(r.executed, golden.executed) << what;
    };

    expectGolden(runSingleQueue(), "single-queue");
    for (unsigned shards : {1u, 2u, 4u}) {
        std::string n = std::to_string(shards);
        expectGolden(
            runSharded(shards, ParallelSim::Mode::DeterministicMerge),
            "det-merge shards=" + n);
        expectGolden(runSharded(shards, ParallelSim::Mode::FreeRun),
                     "free-run shards=" + n);
    }
}

TEST(PodFabricShardDeathTest, FailureApiNeedsOneShard)
{
    // A sharded fabric is static: its failure and health API panics
    // instead of changing one half of a split link.
    setQuiet(true);
    auto callOnTwoShards = [](auto &&call) {
        PodFabricSpec spec = testSpec();
        ParallelSim sim(2, spec.lookahead(),
                        ParallelSim::Mode::DeterministicMerge);
        sim.run(kHorizon, [&spec, &call](ShardHost &host) {
            auto fabric =
                std::make_shared<PodFabricShard>(host, "fab", spec);
            call(*fabric);
            host.hold(std::move(fabric));
        });
    };
    EXPECT_DEATH(callOnTwoShards(
                     [](PodFabricShard &f) { f.failLink(0, 0); }),
                 "needs a one-shard fabric");
    EXPECT_DEATH(callOnTwoShards([](PodFabricShard &f) { f.health(); }),
                 "needs a one-shard fabric");
}

TEST(ParallelSim, AsymmetricLoadStaysDeterministic)
{
    // Only pod 0's nodes transmit: shard 0 is busy while the others
    // mostly exchange null quanta. The skewed schedule must not
    // change results between modes (exercises the wait/skew logic
    // rather than the steady state).
    setQuiet(true);
    PodFabricSpec spec = testSpec();

    auto runOneSided = [&spec](unsigned shards,
                               ParallelSim::Mode mode) {
        ParallelSim sim(shards, spec.lookahead(), mode);
        std::vector<LatencyHistogram> hists(shards);
        std::vector<std::uint64_t> rcvd(shards, 0);
        sim.run(kHorizon, [&](ShardHost &host) {
            struct Ctx
            {
                std::unique_ptr<PodFabricShard> fabric;
                std::vector<std::unique_ptr<TestSender>> nodes;
                LatencyHistogram hist;
                std::uint64_t sent = 0, rcvd = 0;
            };
            auto ctx = std::make_shared<Ctx>();
            ctx->fabric = std::make_unique<PodFabricShard>(
                host, "fab", spec);
            for (std::uint32_t n = 0; n < spec.totalNodes(); ++n) {
                if (!ctx->fabric->ownsNode(n))
                    continue;
                auto node = std::make_unique<TestSender>(
                    host.eventq(), spec, n, kFrames, kGap);
                node->access = &ctx->fabric->attach(n, node.get());
                node->hist = &ctx->hist;
                node->sent = &ctx->sent;
                node->rcvd = &ctx->rcvd;
                if (spec.podOf(n) == 0)
                    node->start(); // only pod 0 transmits
                ctx->nodes.push_back(std::move(node));
            }
            LatencyHistogram *hist = &hists[host.shardId()];
            std::uint64_t *r = &rcvd[host.shardId()];
            host.atEnd([ctx, hist, r] {
                *hist = ctx->hist;
                *r = ctx->rcvd;
            });
            host.hold(std::move(ctx));
        });
        LatencyHistogram merged;
        std::uint64_t total = 0;
        for (unsigned s = 0; s < shards; ++s) {
            merged.merge(hists[s]);
            total += rcvd[s];
        }
        return std::make_pair(merged.digest(), total);
    };

    auto golden =
        runOneSided(1, ParallelSim::Mode::DeterministicMerge);
    EXPECT_GT(golden.second, 0u);
    auto det4 =
        runOneSided(4, ParallelSim::Mode::DeterministicMerge);
    auto free4 = runOneSided(4, ParallelSim::Mode::FreeRun);
    EXPECT_EQ(det4, golden);
    EXPECT_EQ(free4, golden);
}
