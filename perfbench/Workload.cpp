#include <algorithm>
#include <ctime>
#include <memory>
#include <string>
#include <sys/resource.h>

#include "Workload.hh"

namespace perfbench
{

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"wall_s", "s", "lower"},
        {"setup_s", "s", "lower"},
        {"cpu_s", "s", "lower"},
        {"peak_rss_mb", "MB", "lower"},
        {"sim_p50_us", "us", "lower"},
        {"sim_p99_us", "us", "lower"},
    };
    return defs;
}

namespace
{

/** Names outlive the catalog vector: they are interned here. */
const char *
intern(const std::string &s)
{
    static std::vector<std::unique_ptr<std::string>> pool;
    pool.push_back(std::make_unique<std::string>(s));
    return pool.back()->c_str();
}

std::vector<MetricDef>
buildPerLayer()
{
    std::vector<MetricDef> d;
    auto add = [&d](const std::string &n, const char *unit,
                    const char *better) {
        d.push_back({intern(n), unit, better});
    };

    // Host self time of every layer the benchmark calls into.
    for (const char *l : {"sim", "kernel", "net", "transport", "flow",
                          "workload", "harness"})
        add(std::string("host.") + l + ".self_s", "s", "lower");
    add("sim.events", "count", "lower");
    add("sim.ns_per_event", "ns", "lower");
    add("sim.lat_n", "count", "higher");
    add("trace.overhead_s", "s", "lower");
    add("trace.spans", "count", "lower");
    add("fail_frac", "ratio", "lower");

    // Headline simulated results (exact per seed).
    add("netdimm_oneway_p50_us", "us", "lower");
    add("netdimm_oneway_p99_us", "us", "lower");
    add("netdimm_vs_dnic_pct", "%", "higher");
    add("netdimm_vs_inic_pct", "%", "higher");
    add("kv_handler_p99_us", "us", "lower");
    add("kv_host_p99_us", "us", "lower");
    add("kv_handler_slo_mqps", "MQPS", "higher");
    add("kv_host_slo_mqps", "MQPS", "higher");
    add("incast_p99_err_pct", "%", "lower");

    // Fig. 11 components per NIC kind, mean ns per packet.
    static const char *const comps[] = {
        "tx_copy", "tx_flush", "io_reg",        "tx_dma",
        "wire",    "rx_dma",   "rx_invalidate", "rx_copy"};
    for (const char *kind : {"dnic", "inic", "netdimm"})
        for (const char *c : comps)
            add(std::string("lat.") + kind + "." + c + "_ns", "ns",
                "lower");

    // NetDIMM device and its local memory (trace-replay).
    add("netdimm.ncache_hit_ratio", "ratio", "higher");
    add("netdimm.prefetches", "count", "higher");
    add("netdimm.ncache_evictions", "count", "lower");
    add("mem.rowclone_fpm", "count", "higher");
    add("mem.rowclone_psm", "count", "lower");
    add("mem.rowclone_gcm", "count", "lower");
    add("mem.rowclone_failed", "count", "lower");
    add("mem.local_row_hit_ratio", "ratio", "higher");
    add("mem.local_read_ns", "ns", "lower");
    add("mem.local_bus_util", "ratio", "lower");

    // Host path (trace-replay).
    add("mem.host_row_hit_ratio", "ratio", "higher");
    add("kernel.copy_bytes", "bytes", "lower");
    add("cache.llc_hit_ratio", "ratio", "higher");
    add("cache.ddio_inserts", "count", "higher");
    add("cache.ddio_leaks", "count", "lower");
    add("pcie.tlps", "count", "lower");
    add("pcie.payload_bytes", "bytes", "lower");

    // KV serving cells and the arbitration trade.
    const std::vector<std::string> &interf = kvInterferenceCellNames();
    for (const std::string &cell : kvCellNames()) {
        bool small = std::find(interf.begin(), interf.end(), cell) !=
                     interf.end();
        add("workload.kv." + cell + ".wall_s", "s", "lower");
        add("workload.kv." + cell + (small ? ".p90_us" : ".p99_us"), "us",
            "lower");
    }
    add("handler.served_frac", "ratio", "higher");
    add("handler.overflows", "count", "lower");
    for (const std::string &cell : kvInterferenceCellNames()) {
        add("mem.handler_bus_frac." + cell, "ratio", "higher");
        add("workload.kv." + cell + ".probe_read_ns", "ns", "lower");
        add("workload.kv." + cell + ".mlc_gbps", "GB/s", "higher");
    }

    // PDES synchronisation (pdes-fabric).
    add("sim.pdes.quanta", "count", "lower");
    add("sim.pdes.pumped_frames", "count", "lower");
    add("sim.pdes.events_per_quantum", "count", "higher");
    add("sim.pdes.imbalance", "ratio", "lower");
    add("sim.pdes.shard_cpu_s", "s", "lower");

    // Fluid solver, transport and switch (incast-hybrid).
    add("flow.rounds", "count", "lower");
    add("flow.rate_cuts", "count", "lower");
    add("flow.promotions", "count", "lower");
    add("flow.demotions", "count", "lower");
    add("flow.handoff_dup_bytes", "bytes", "lower");
    add("transport.retransmissions", "count", "lower");
    add("transport.timeouts", "count", "lower");
    add("transport.goodput_ratio", "ratio", "higher");
    add("net.switch_ecn_marks", "count", "lower");
    add("net.switch_max_queue", "frames", "lower");
    return d;
}

} // namespace

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = buildPerLayer();
    return defs;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

Digests
Workload::reference(std::uint64_t seed)
{
    return rep(seed, nullptr).digests;
}

} // namespace perfbench
