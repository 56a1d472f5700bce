/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * event scheduling, DRAM beat service, address decoding, nCache
 * operations and an end-to-end packet. These track the *simulator's*
 * performance (events/second), useful when scaling the replay
 * experiments up.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <thread>

#include "mem/MemoryController.hh"
#include "net/Link.hh"
#include "net/Packet.hh"
#include "net/ShardLink.hh"
#include "netdimm/NCache.hh"
#include "kernel/Node.hh"
#include "sim/ParallelSim.hh"
#include "sim/ShardChannel.hh"

using namespace netdimm;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    // Queue construction/destruction (slab growth, heap vector) is
    // excluded from the timed region so the benchmark measures the
    // schedule+dispatch loop itself, not setup cost.
    for (auto _ : state) {
        state.PauseTiming();
        auto eq = std::make_unique<EventQueue>();
        state.ResumeTiming();
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq->schedule(Tick(i), [&sink] { ++sink; });
        eq->run();
        benchmark::DoNotOptimize(sink);
        state.PauseTiming();
        eq.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueDescheduleChurn(benchmark::State &state)
{
    // Transport-style RTO arm/cancel: every timeout scheduled is
    // cancelled before it fires, so this isolates the O(1)
    // deschedule path plus the lazy dead-entry cleanup in run().
    EventQueue eq;
    for (auto _ : state) {
        std::uint64_t handles[64];
        for (int i = 0; i < 64; ++i)
            handles[i] = eq.scheduleRel(Tick(1000 + i), [] {});
        for (int i = 0; i < 64; ++i)
            eq.deschedule(handles[i]);
        // One live event keeps the clock moving and drains the dead
        // heap entries left behind by the cancellations.
        eq.scheduleRel(1, [] {});
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 64);
    state.SetLabel("cancels");
}
BENCHMARK(BM_EventQueueDescheduleChurn);

/** Far event that re-arms itself one backlog period later. */
struct FarRearm
{
    EventQueue *eq;
    Tick period;

    void
    operator()() const
    {
        eq->scheduleRel(period, FarRearm{eq, period});
    }
};

void
BM_EventQueueFarBacklog(benchmark::State &state)
{
    // trace-replay's shape: a deep backlog of far-future events (its
    // pre-scheduled frames) under a churn of near-delay events (the
    // per-packet pipeline). 4,096 far events re-arm themselves, so
    // the backlog stays constant while one of them fires about every
    // iteration.
    constexpr int backlog = 4096;
    constexpr Tick step = 100 * tickPerNs;
    constexpr Tick period = backlog * step;
    EventQueue eq;
    for (int i = 0; i < backlog; ++i)
        eq.schedule(10 * tickPerUs + Tick(i) * step,
                    FarRearm{&eq, period});
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            eq.scheduleRel(Tick(i + 1) * tickPerNs, [] {});
        eq.runUntil(eq.curTick() + step);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueFarBacklog);

template <std::size_t Bytes>
void
BM_EventQueueCaptureSize(benchmark::State &state)
{
    // Cost of moving a capture of a given size through its pooled
    // slot (the capture budget is eventCaptureBytes; sizes here span
    // a pointer-sized closure up to a completion-carrying one).
    EventQueue eq;
    std::uint64_t sink = 0;
    struct Pad
    {
        unsigned char b[Bytes];
    };
    for (auto _ : state) {
        Pad p{};
        p.b[0] = 1;
        for (int i = 0; i < 256; ++i)
            eq.scheduleRel(Tick(i + 1),
                           [&sink, p] { sink += p.b[0]; });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK_TEMPLATE(BM_EventQueueCaptureSize, 8);
BENCHMARK_TEMPLATE(BM_EventQueueCaptureSize, 40);
BENCHMARK_TEMPLATE(BM_EventQueueCaptureSize, 72);

void
BM_PooledObjectChurn(benchmark::State &state)
{
    // Packet + MemRequest factory churn through the free-list pools;
    // steady state (after the first iteration warms the pools) must
    // not touch the heap.
    for (auto _ : state) {
        auto pkt = makePacket(1460, 0, 1);
        auto req = makeMemRequest(0x1000, 64, false,
                                  MemSource::HostCpu, nullptr);
        benchmark::DoNotOptimize(pkt.get());
        benchmark::DoNotOptimize(req.get());
    }
    state.SetItemsProcessed(state.iterations() * 2);
    state.SetLabel("objects");
}
BENCHMARK(BM_PooledObjectChurn);

void
BM_DimmDecode(benchmark::State &state)
{
    DramGeometry geo;
    geo.channels = 1;
    geo.ranksPerChannel = 2;
    DimmDecoder dec(geo);
    Addr a = 0;
    for (auto _ : state) {
        DramAddress da = dec.decode(a);
        benchmark::DoNotOptimize(da);
        a += 4096 + 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DimmDecode);

void
BM_MemoryControllerStream(benchmark::State &state)
{
    SystemConfig cfg;
    DramGeometry geo = cfg.hostMem;
    geo.channels = 1;
    for (auto _ : state) {
        EventQueue eq;
        MemoryController mc(eq, "mc", cfg.dram, geo, cfg.memCtrl);
        for (int i = 0; i < 256; ++i) {
            auto req = makeMemRequest(Addr(i) * 4096, 4096, false,
                                      MemSource::HostCpu, nullptr);
            mc.access(req);
        }
        eq.run();
        benchmark::DoNotOptimize(mc.beatsServiced());
    }
    state.SetItemsProcessed(state.iterations() * 256 * 64);
    state.SetLabel("beats");
}
BENCHMARK(BM_MemoryControllerStream);

void
BM_NCacheInsertConsume(benchmark::State &state)
{
    NetDimmConfig cfg;
    NCache cache(cfg, 1);
    Addr a = 0;
    for (auto _ : state) {
        cache.insert(a, (a & 0x3C0) == 0);
        benchmark::DoNotOptimize(cache.consume(a));
        a += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NCacheInsertConsume);

void
BM_EndToEndPacket(benchmark::State &state)
{
    setQuiet(true);
    SystemConfig cfg;
    cfg.nic = static_cast<NicKind>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        EventQueue eq;
        Node a(eq, "a", cfg, 0), b(eq, "b", cfg, 1);
        EthLink link(eq, "link", cfg.eth);
        connectNodes(link, a, b);
        int got = 0;
        b.setReceiveHandler([&](const PacketPtr &, Tick) { ++got; });
        state.ResumeTiming();

        for (int i = 0; i < 16; ++i)
            a.sendPacket(a.makeTxPacket(1460, b.id(), 1 + i % 4));
        eq.run();
        benchmark::DoNotOptimize(got);
    }
    state.SetItemsProcessed(state.iterations() * 16);
    state.SetLabel(nicKindName(cfg.nic));
}
BENCHMARK(BM_EndToEndPacket)
    ->Arg(int(NicKind::Discrete))
    ->Arg(int(NicKind::Integrated))
    ->Arg(int(NicKind::NetDimm))
    ->Unit(benchmark::kMicrosecond);

void
BM_ShardChannelPushPop(benchmark::State &state)
{
    // Single-thread enqueue/dequeue through the SPSC chunk machinery
    // (no cross-core traffic): the floor cost of one channel entry.
    ShardChannel<std::uint64_t> ch;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < 256; ++i)
            ch.push(i);
        const std::uint64_t *v;
        while ((v = ch.front()) != nullptr) {
            sink += *v;
            ch.pop();
        }
    }
    benchmark::DoNotOptimize(sink);
    if (ch.chunkAllocs() > 8)
        state.SkipWithError("chunk recycling failed");
    state.SetItemsProcessed(state.iterations() * 256);
    state.SetLabel("entries");
}
BENCHMARK(BM_ShardChannelPushPop);

void
BM_ShardChannelFrameTransfer(benchmark::State &state)
{
    // Same path carrying real cross-shard freight: a ShardFrame is a
    // by-value Packet plus two ticks (~the copy the producer pays in
    // CrossShardSink::push and the consumer pays materializing it).
    ShardChannel<ShardFrame> ch;
    ShardFrame f{};
    f.pkt.bytes = 1460;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < 64; ++i) {
            f.sendTick = i;
            f.when = i + 67600;
            ch.push(f);
        }
        const ShardFrame *got;
        while ((got = ch.front()) != nullptr) {
            sink += got->when;
            ch.pop();
        }
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 64);
    state.SetLabel("frames");
}
BENCHMARK(BM_ShardChannelFrameTransfer);

void
BM_ShardChannelThreaded(benchmark::State &state)
{
    // Two-core steady state: a persistent producer thread pushes
    // batches on demand; the benchmark thread drains them. Measures
    // the release/acquire hand-off rate between shard threads.
    constexpr std::int64_t kBatch = 1024;
    ShardChannel<std::uint64_t> ch;
    std::atomic<std::int64_t> batch{0};
    std::thread producer([&] {
        for (;;) {
            std::int64_t n =
                batch.exchange(0, std::memory_order_acquire);
            if (n < 0)
                return;
            if (n == 0) {
                std::this_thread::yield();
                continue;
            }
            for (std::int64_t i = 0; i < n; ++i)
                ch.push(std::uint64_t(i));
        }
    });
    std::uint64_t sink = 0;
    for (auto _ : state) {
        batch.store(kBatch, std::memory_order_release);
        std::int64_t got = 0;
        while (got < kBatch) {
            const std::uint64_t *v = ch.front();
            if (v == nullptr)
                continue;
            sink += *v;
            ch.pop();
            ++got;
        }
    }
    batch.store(-1, std::memory_order_release);
    producer.join();
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.SetLabel("entries");
}
BENCHMARK(BM_ShardChannelThreaded)->UseRealTime();

void
BM_PdesNullQuanta(benchmark::State &state)
{
    // Pure synchronization overhead of the conservative protocol: a
    // free-running ParallelSim with NO traffic just exchanges
    // implicit null messages (quantum barriers). Items/sec = quanta
    // per second per shard; sweeping the quantum shows how lookahead
    // sets the ceiling on sync cost (smaller lookahead -> more quanta
    // for the same simulated time).
    unsigned shards = unsigned(state.range(0));
    Tick quantum = Tick(state.range(1));
    Tick horizon = quantum * 4096;
    std::uint64_t quanta = 0;
    for (auto _ : state) {
        ParallelSim sim(shards, quantum,
                        ParallelSim::Mode::FreeRun);
        sim.run(horizon, [](ShardHost &) {});
        quanta += sim.shardStats()[0].quanta;
    }
    state.SetItemsProcessed(quanta);
    state.SetLabel(std::to_string(shards) + " shards");
}
BENCHMARK(BM_PdesNullQuanta)
    ->Args({1, 67600})
    ->Args({2, 16900})
    ->Args({2, 67600})
    ->Args({2, 270400})
    ->Args({4, 16900})
    ->Args({4, 67600})
    ->Args({4, 270400})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
