/**
 * @file
 * kv-serving: open-loop Poisson KV RPCs as sequential runServing
 * cells. A NetDIMM host-processing rate grid straddles its knee, a
 * NetDIMM+handlers grid straddles the handler knee, one PUT-heavy
 * handler cell adds DIMM writes, and two 2 KB interference cells run
 * the MLC injector plus the dependent-load probe under Fair and
 * HostPriority arbitration. The handler stage, class-aware memory
 * arbitration, host cache accesses and the RPC load generator do the
 * work.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "BenchMath.hh"
#include "Workload.hh"
#include "workload/RpcServingLoad.hh"

using namespace netdimm;

namespace perfbench
{

namespace
{

constexpr double kSloUs = 20.0;

struct Cell
{
    const char *name;
    ServingPlacement placement;
    double qps;
    std::uint64_t requests;
    MemArbPolicy arb = MemArbPolicy::HostPriority;
    double getFraction = 0.9;
    bool interference = false; ///< 2 KB values, MLC injector + probe
};

/** Run order. Grid cells are long enough for a growing backlog to
 *  reach p99; the HostPriority interference cell stays below its
 *  superlinear cliff (see NOTES.md). */
const std::vector<Cell> &
cells()
{
    using P = ServingPlacement;
    static const std::vector<Cell> c = {
        {"host800k", P::NetDimmHost, 0.8e6, 20000},
        {"host900k", P::NetDimmHost, 0.9e6, 20000},
        {"host1000k", P::NetDimmHost, 1.0e6, 20000},
        {"host1100k", P::NetDimmHost, 1.1e6, 20000},
        {"hnd1500k", P::NetDimmHandlers, 1.5e6, 80000},
        {"hnd1800k", P::NetDimmHandlers, 1.8e6, 80000},
        {"put1500k", P::NetDimmHandlers, 1.5e6, 20000,
         MemArbPolicy::HostPriority, 0.5},
        {"fair_mlc", P::NetDimmHandlers, 2.0e6, 300, MemArbPolicy::Fair,
         0.9, true},
        {"hostpri_mlc", P::NetDimmHandlers, 2.0e6, 300,
         MemArbPolicy::HostPriority, 0.9, true},
    };
    return c;
}

ServingParams
paramsFor(const Cell &c)
{
    ServingParams p;
    p.placement = c.placement;
    p.qps = c.qps;
    p.requests = c.requests;
    p.warmup = c.requests / 10;
    p.arb = c.arb;
    p.getFraction = c.getFraction;
    if (c.interference) {
        p.valueBytes = 2048;
        p.probe = true;
        p.mlc = true;
    }
    return p;
}

double
us(const LatencyHistogram &h, double q)
{
    return h.percentile(q) / double(tickPerUs);
}

class KvServing : public Workload
{
  public:
    RepResult rep(std::uint64_t seed, Tracer *tracer) override;
    void finish(std::uint64_t seed, Values &sim,
                std::vector<std::string> &failures) override;
    void describe(const Values &sim) const override;

  private:
    std::vector<ServingResult> _res;
    std::vector<double> _cellWall;
};

RepResult
KvServing::rep(std::uint64_t seed, Tracer *tracer)
{
    using clock = std::chrono::steady_clock;
    const std::vector<Cell> &cs = cells();
    RepResult r;

    // runServing builds its nodes inside the call, so set-up here is
    // the benchmark's own preparation: the per-cell configs, plus one
    // single-request cell per spec, which costs what building the
    // cell costs.
    auto t0 = clock::now();
    std::vector<SystemConfig> cfgs(cs.size());
    for (std::size_t i = 0; i < cs.size(); ++i) {
        // The interference cells replay one fixed arrival stream: their
        // host cost swings 4x with the arrival pattern (NOTES.md), which
        // would bury every other cell's timing under seed noise.
        cfgs[i].seed = mix64((cs[i].interference ? 1 : seed) * 0x100 + i);
        ServingParams one = paramsFor(cs[i]);
        one.requests = 1;
        one.warmup = 0;
        one.probe = one.mlc = false;
        ScopedSpan s(tracer, "runServing.build", Layer::Workload, i);
        runServing(cfgs[i], one);
    }
    r.setupS = std::chrono::duration<double>(clock::now() - t0).count();

    _res.assign(cs.size(), ServingResult());
    for (std::size_t i = 0; i < cs.size(); ++i) {
        double cpu0 = processCpuSeconds();
        auto c0 = clock::now();
        {
            ScopedSpan s(tracer, "runServing", Layer::Workload, i);
            _res[i] = runServing(cfgs[i], paramsFor(cs[i]));
        }
        r.wallParts.push_back(
            std::chrono::duration<double>(clock::now() - c0).count());
        r.cpuParts.push_back(processCpuSeconds() - cpu0);
    }
    _cellWall = r.wallParts;

    for (std::size_t i = 0; i < cs.size(); ++i) {
        const ServingResult &s = _res[i];
        r.attempted += s.sent;
        r.failed += s.lost;
        if (s.completed + s.lost != s.sent) {
            char msg[160];
            std::snprintf(msg, sizeof(msg),
                          "kv-serving %s: completed %llu + lost %llu != "
                          "sent %llu",
                          cs[i].name, (unsigned long long)s.completed,
                          (unsigned long long)s.lost,
                          (unsigned long long)s.sent);
            r.checkFailures.push_back(msg);
        }
        r.digests.push_back({std::string("rtt.") + cs[i].name,
                             s.rtt.digest()});
    }
    return r;
}

void
KvServing::finish(std::uint64_t, Values &v,
                  std::vector<std::string> &failures)
{
    const std::vector<Cell> &cs = cells();
    std::vector<GridPoint> host, hnd;
    std::uint64_t served = 0, handled = 0, overflows = 0;
    for (std::size_t i = 0; i < cs.size(); ++i) {
        const Cell &c = cs[i];
        const ServingResult &s = _res[i];
        double p99 = us(s.rtt, 0.99);
        std::string pre = std::string("workload.kv.") + c.name;
        v[pre + ".wall_s"] = _cellWall[i];
        if (c.interference) {
            // A few hundred requests: p90 is the highest percentile
            // with ten samples beyond it.
            if (!percentileSupported(0.90, s.rtt.count()))
                failures.push_back(pre + ": p90 from too few samples");
            v[pre + ".p90_us"] = us(s.rtt, 0.90);
            v[std::string("mem.handler_bus_frac.") + c.name] =
                s.handlerBusFraction;
            v[pre + ".probe_read_ns"] = s.probeMeanNs;
            v[pre + ".mlc_gbps"] = s.mlcGBps;
            continue;
        }
        v[pre + ".p99_us"] = p99;
        if (c.placement == ServingPlacement::NetDimmHandlers) {
            served += s.completed;
            handled += s.handlerServed;
            overflows += s.handlerOverflows;
            if (c.getFraction == 0.9)
                hnd.push_back({c.qps / 1e6, p99, s.lost});
        } else {
            host.push_back({c.qps / 1e6, p99, s.lost});
        }
        if (std::string(c.name) == "hnd1500k") {
            v["sim_p50_us"] = us(s.rtt, 0.50);
            v["sim_p99_us"] = p99;
            v["sim.lat_n"] = double(s.rtt.count());
            v["kv_handler_p99_us"] = p99;
        }
        if (std::string(c.name) == "host900k")
            v["kv_host_p99_us"] = p99;
    }
    v["kv_handler_slo_mqps"] = sloRate(hnd, kSloUs);
    v["kv_host_slo_mqps"] = sloRate(host, kSloUs);
    v["handler.served_frac"] =
        served ? double(handled) / double(served) : 0.0;
    v["handler.overflows"] = double(overflows);
}

void
KvServing::describe(const Values &v) const
{
    const std::vector<Cell> &cs = cells();
    std::printf("kv-serving: %zu open-loop Poisson cells, SLO p99 <= "
                "%.0f us with nothing lost\n",
                cs.size(), kSloUs);
    std::printf("  %-12s %7s %7s %6s %5s %10s %10s %8s\n", "cell", "MQPS",
                "sent", "done", "lost", "p50(us)", "p99(us)", "wall(s)");
    for (std::size_t i = 0; i < cs.size(); ++i) {
        const ServingResult &s = _res[i];
        std::printf("  %-12s %7.2f %7llu %6llu %5llu %10.3f %10.3f "
                    "%8.3f\n",
                    cs[i].name, cs[i].qps / 1e6,
                    (unsigned long long)s.sent,
                    (unsigned long long)s.completed,
                    (unsigned long long)s.lost, us(s.rtt, 0.5),
                    us(s.rtt, 0.99), _cellWall[i]);
    }
    std::printf("  kv_handler_p99_us %.4f us (1.5 MQPS, n=%.0f)  "
                "kv_host_p99_us %.4f us (0.9 MQPS)\n",
                v.at("kv_handler_p99_us"), v.at("sim.lat_n"),
                v.at("kv_host_p99_us"));
    std::printf("  kv_handler_slo_mqps %.2f MQPS  kv_host_slo_mqps %.2f "
                "MQPS\n",
                v.at("kv_handler_slo_mqps"), v.at("kv_host_slo_mqps"));
}

} // namespace

const std::vector<std::string> &
kvCellNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const Cell &c : cells())
            n.push_back(c.name);
        return n;
    }();
    return names;
}

const std::vector<std::string> &
kvInterferenceCellNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const Cell &c : cells())
            if (c.interference)
                n.push_back(c.name);
        return n;
    }();
    return names;
}

std::unique_ptr<Workload>
makeKvServing()
{
    return std::make_unique<KvServing>();
}

} // namespace perfbench
