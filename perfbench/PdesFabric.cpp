/**
 * @file
 * pdes-fabric: the pdes_scale 1024-node, 4-pod leaf-spine fabric
 * replaying a node-striped frame trace, free-running at 2 shards.
 * ParallelSim, the shard channels, ShardLink, Switch and EthLink do
 * all the work; no node device runs.
 *
 * The trace keeps pdes_scale's construction (one frame size, born
 * ticks unique by construction, so the run is byte-identical at any
 * shard count and in either execution mode) but salts the jitter and
 * destination hashes with the workload seed.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "BenchMath.hh"
#include "Workload.hh"
#include "harness/LatencyHistogram.hh"
#include "net/Topology.hh"
#include "sim/ParallelSim.hh"
#include "workload/TraceGen.hh"

using namespace netdimm;

namespace perfbench
{

namespace
{

/** Two shard threads on the four-CPU host: at four, one slowed CPU
 *  stalls every quantum and run-to-run host time spread 22% (NOTES.md). */
constexpr unsigned kShards = 2;
constexpr std::uint32_t kFramesPerNode = 250;

/** StripedTraceSpec with seeded jitter and destinations. */
struct SeededStripes
{
    StripedTraceSpec spec;
    std::uint64_t salt = 0;

    Tick
    bornTick(std::uint32_t node, std::uint32_t i) const
    {
        Tick slot = spec.gap / spec.nodes;
        Tick jitter =
            Tick(node) * slot +
            traceMix64(((std::uint64_t(node) << 32) | i) ^ salt) % slot;
        return spec.warmup + Tick(i) * spec.gap + jitter;
    }

    std::uint32_t
    dstOf(std::uint32_t node, std::uint32_t i) const
    {
        std::uint32_t dst = std::uint32_t(
            traceMix64(((std::uint64_t(i) << 32) |
                        (node * 2654435761u)) ^
                       (salt >> 1)) %
            (spec.nodes - 1));
        return dst >= node ? dst + 1 : dst;
    }
};

struct Params
{
    PodFabricSpec fabric;
    SeededStripes trace;

    explicit Params(std::uint64_t seed)
    {
        fabric.pods = 4;
        fabric.leavesPerPod = 4;
        fabric.spines = 8;
        fabric.nodesPerLeaf = 64;
        // Lossless fabric: sent == rcvd with no tail drops.
        fabric.eth.switchQueueFrames = 0;
        fabric.eth.ecnThresholdFrames = 0;
        trace.spec.nodes = fabric.totalNodes();
        trace.spec.framesPerNode = kFramesPerNode;
        trace.salt = mix64(seed);
    }
};

struct TraceNode : NetEndpoint
{
    EventQueue &eq;
    const SeededStripes &tr;
    std::uint32_t id;
    EthLink *access = nullptr;
    LatencyHistogram *hist = nullptr;
    std::uint64_t *sent = nullptr;
    std::uint64_t *rcvd = nullptr;

    TraceNode(EventQueue &eq_, const SeededStripes &tr_, std::uint32_t id_)
        : eq(eq_), tr(tr_), id(id_)
    {
    }

    // Scheduled events hold `this`.
    TraceNode(const TraceNode &) = delete;
    TraceNode &operator=(const TraceNode &) = delete;

    void
    start()
    {
        eq.schedule(tr.bornTick(id, 0), [this] { fire(0); });
    }

    void
    fire(std::uint32_t i)
    {
        PacketPtr pkt =
            makePacket(eq, tr.spec.bytes, id, tr.dstOf(id, i));
        pkt->flowId = tr.spec.flowIdOf(id, i);
        pkt->born = eq.curTick();
        ++*sent;
        access->send(this, pkt);
        if (i + 1 < tr.spec.framesPerNode)
            eq.schedule(tr.bornTick(id, i + 1),
                        [this, i] { fire(i + 1); });
    }

    void
    deliver(const PacketPtr &pkt) override
    {
        hist->sample(eq.curTick() - pkt->born);
        ++*rcvd;
    }
};

struct ShardCtx
{
    std::unique_ptr<PodFabricShard> fabric;
    std::vector<std::unique_ptr<TraceNode>> nodes;
    LatencyHistogram hist;
    std::uint64_t sent = 0, rcvd = 0;
};

/** What one shard reports from its own thread. */
struct ShardOut
{
    LatencyHistogram hist;
    std::uint64_t sent = 0, rcvd = 0, drops = 0, fabricFrames = 0;
    std::int64_t buildEnd = 0, drained = 0;
    double cpuBuilt = 0.0, cpuDrained = 0.0;
};

std::uint64_t
switchDrops(const Switch &s)
{
    return s.dropsQueue() + s.dropsNoRoute() + s.dropsNoPath() +
           s.dropsLinkDown();
}

struct RunOut
{
    LatencyHistogram hist;
    std::uint64_t sent = 0, rcvd = 0, drops = 0, fabricFrames = 0;
    std::uint64_t executed = 0, quanta = 0, pumped = 0;
    std::vector<std::uint64_t> perShard;
    /** Each shard thread's CPU seconds between build and drain. */
    std::vector<double> shardCpu;
    double setupS = 0.0, wallS = 0.0;
};

RunOut
runFabric(const Params &p, ParallelSim::Mode mode, Tracer *tracer)
{
    ParallelSim sim(kShards, p.fabric.lookahead(), mode);
    std::vector<ShardOut> outs(kShards);
    std::int64_t t0 = hostNowNs();
    ScopedSpan runSpan(tracer, "ParallelSim::run", Layer::Sim);
    std::int32_t parent = runSpan.index();
    sim.run(p.trace.spec.horizon(), [&p, &outs, tracer,
                                     parent](ShardHost &host) {
        ShardOut *out = &outs[host.shardId()];
        auto ctx = std::make_shared<ShardCtx>();
        {
            ScopedSpan s(tracer, "PodFabricShard", Layer::Net,
                         host.shardId(), parent);
            ctx->fabric = std::make_unique<PodFabricShard>(host, "fab",
                                                           p.fabric);
        }
        {
            ScopedSpan s(tracer, "TraceNode.attach", Layer::Harness,
                         host.shardId(), parent);
            for (std::uint32_t n = 0; n < p.fabric.totalNodes(); ++n) {
                if (!ctx->fabric->ownsNode(n))
                    continue;
                auto node = std::make_unique<TraceNode>(host.eventq(),
                                                        p.trace, n);
                node->access = &ctx->fabric->attach(n, node.get());
                node->hist = &ctx->hist;
                node->sent = &ctx->sent;
                node->rcvd = &ctx->rcvd;
                node->start();
                ctx->nodes.push_back(std::move(node));
            }
        }
        out->cpuBuilt = threadCpuSeconds();
        out->buildEnd = hostNowNs();
        unsigned shard = host.shardId();
        const PodFabricSpec &spec = p.fabric;
        host.atEnd([ctx, out, shard, &spec, tracer, parent] {
            out->drained = hostNowNs();
            out->cpuDrained = threadCpuSeconds();
            if (tracer)
                tracer->add("shard.quanta", Layer::Sim, shard, parent,
                            out->buildEnd, out->drained);
            out->hist = ctx->hist;
            out->sent = ctx->sent;
            out->rcvd = ctx->rcvd;
            out->fabricFrames = ctx->fabric->fabricFrames();
            for (std::uint32_t l = 0; l < spec.totalLeaves(); ++l)
                if (PodFabricSpec::podShard(l / spec.leavesPerPod,
                                            kShards) == shard)
                    out->drops += switchDrops(ctx->fabric->leaf(l));
            for (std::uint32_t s = 0; s < spec.spines; ++s)
                if (PodFabricSpec::spineShard(s, kShards) == shard)
                    out->drops += switchDrops(ctx->fabric->spine(s));
        });
        host.hold(std::move(ctx));
    });

    RunOut r;
    std::int64_t built = 0, drained = 0;
    for (const ShardOut &o : outs) {
        r.hist.merge(o.hist);
        r.sent += o.sent;
        r.rcvd += o.rcvd;
        r.drops += o.drops;
        r.fabricFrames += o.fabricFrames;
        r.shardCpu.push_back(o.cpuDrained - o.cpuBuilt);
        built = std::max(built, o.buildEnd);
        drained = std::max(drained, o.drained);
    }
    r.setupS = double(built - t0) * 1e-9;
    r.wallS = double(drained - built) * 1e-9;
    for (const ShardRunStats &s : sim.shardStats()) {
        r.executed += s.executed;
        r.quanta = std::max(r.quanta, s.quanta);
        r.pumped += s.pumped;
        r.perShard.push_back(s.executed);
    }
    return r;
}

/** pdes_scale's canonical shard-count-invariant table. */
std::string
canonical(const Params &p, const RunOut &r)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "nodes=%u flows=%llu sent=%llu rcvd=%llu fabric=%llu "
                  "executed=%llu\n",
                  p.fabric.totalNodes(),
                  (unsigned long long)p.trace.spec.flows(),
                  (unsigned long long)r.sent, (unsigned long long)r.rcvd,
                  (unsigned long long)r.fabricFrames,
                  (unsigned long long)r.executed);
    return buf + r.hist.digest();
}

class PdesFabric : public Workload
{
  public:
    RepResult rep(std::uint64_t seed, Tracer *tracer) override;
    void finish(std::uint64_t seed, Values &sim,
                std::vector<std::string> &failures) override;
    void describe(const Values &sim) const override;
    Digests reference(std::uint64_t seed) override;

  private:
    RunOut _last;
};

RepResult
PdesFabric::rep(std::uint64_t seed, Tracer *tracer)
{
    Params p(seed);
    _last = runFabric(p, ParallelSim::Mode::FreeRun, tracer);
    RepResult r;
    r.setupS = _last.setupS;
    r.wallParts = {_last.wallS};
    r.cpuParts = _last.shardCpu;
    r.events = _last.executed;
    r.attempted = _last.sent;
    r.failed = _last.sent - std::min(_last.sent, _last.rcvd);
    if (_last.sent != _last.rcvd + _last.drops)
        r.checkFailures.push_back(
            "pdes-fabric: sent " + std::to_string(_last.sent) +
            " != rcvd " + std::to_string(_last.rcvd) + " + drops " +
            std::to_string(_last.drops));
    r.digests.push_back({"canonical", canonical(p, _last)});
    return r;
}

Digests
PdesFabric::reference(std::uint64_t seed)
{
    Params p(seed);
    RunOut r =
        runFabric(p, ParallelSim::Mode::DeterministicMerge, nullptr);
    return {{"canonical", canonical(p, r)}};
}

void
PdesFabric::finish(std::uint64_t, Values &v, std::vector<std::string> &)
{
    v["sim_p50_us"] = _last.hist.percentile(0.50) / double(tickPerUs);
    v["sim_p99_us"] = _last.hist.percentile(0.99) / double(tickPerUs);
    v["sim.lat_n"] = double(_last.hist.count());
    v["sim.pdes.quanta"] = double(_last.quanta);
    v["sim.pdes.pumped_frames"] = double(_last.pumped);
    v["sim.pdes.events_per_quantum"] =
        _last.quanta ? double(_last.executed) /
                           double(_last.quanta * kShards)
                     : 0.0;
    v["sim.pdes.imbalance"] = imbalance(_last.perShard);
    v["sim.pdes.shard_cpu_s"] = sumOf(_last.shardCpu);
}

void
PdesFabric::describe(const Values &v) const
{
    std::printf("pdes-fabric: 1024 nodes, 4 pods, %u frames/node, "
                "free-run at %u shards: %llu events, %llu quanta\n",
                kFramesPerNode, kShards,
                (unsigned long long)_last.executed,
                (unsigned long long)_last.quanta);
    std::printf("  frame one-way p50 %.4f us  p99 %.4f us  (n=%.0f)  "
                "imbalance %.3f\n",
                v.at("sim_p50_us"), v.at("sim_p99_us"), v.at("sim.lat_n"),
                v.at("sim.pdes.imbalance"));
}

} // namespace

std::unique_ptr<Workload>
makePdesFabric()
{
    return std::make_unique<PdesFabric>();
}

} // namespace perfbench
