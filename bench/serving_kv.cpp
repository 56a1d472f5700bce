/**
 * @file
 * Tail-latency KV serving campaign over the near-memory handler
 * stage (roadmap: "NetDIMM as a serving accelerator").
 *
 * Open-loop Poisson GET/PUT traffic at swept QPS against four
 * placements — dNIC, iNIC, NetDIMM with host processing, and NetDIMM
 * with on-DIMM handler kernels (the latter under all three nMC
 * arbitration policies) — reporting p50/p99/p999 RTT and the
 * SLO-violation fraction per cell. Every cell is an independent
 * simulation on the SweepRunner pool, so the table is byte-identical
 * at any --jobs.
 *
 * Self-checks (exit nonzero on violation):
 *  - zero-handler golden: a handler-enabled device that serves NO
 *    op must reproduce the plain-NetDIMM cell bit-for-bit
 *    (same RTT population digest, same counts);
 *  - offload win: at the highest swept QPS, NetDIMM+handlers must
 *    show a lower p99 than NetDIMM with host processing.
 *
 * The closing interference table runs a dependent-load probe on the
 * server against NetDIMM-window pages while serving, showing how the
 * arbitration policy trades host read latency against handler p99 on
 * the shared local memory controller.
 */

#include <cstdio>
#include <vector>

#include "harness/SweepRunner.hh"
#include "sim/Logging.hh"
#include "workload/RpcServingLoad.hh"

using namespace netdimm;

namespace
{

constexpr double kSloUs = 20.0;

struct Spec
{
    double qps;
    ServingPlacement placement;
    MemArbPolicy arb;
    const char *policy; ///< printed policy column
};

ServingParams
cellParams(const Spec &s, bool short_mode)
{
    ServingParams p;
    p.placement = s.placement;
    p.qps = s.qps;
    p.requests = short_mode ? 1200 : 4000;
    p.warmup = short_mode ? 150 : 400;
    p.arb = s.arb;
    return p;
}

double
pctUs(const ServingResult &r, double q)
{
    return r.rtt.percentile(q) / double(tickPerUs);
}

void
printRow(const Spec &s, const ServingResult &r)
{
    std::printf("%7.2f %-10s %-8s %6llu %6llu %5llu "
                "%9.3f %9.3f %9.3f %8.3f%% %6llu %5llu %6.3f\n",
                s.qps / 1e6, placementName(s.placement), s.policy,
                (unsigned long long)r.sent,
                (unsigned long long)r.completed,
                (unsigned long long)r.lost, pctUs(r, 0.50),
                pctUs(r, 0.99), pctUs(r, 0.999),
                100.0 * r.rtt.fractionAbove(kSloUs * tickPerUs),
                (unsigned long long)r.handlerServed,
                (unsigned long long)r.handlerOverflows,
                r.handlerBusFraction);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    SweepCli cli = parseSweepCli(argc, argv, sweepShort | sweepJobs);
    const bool short_mode = cli.shortMode;
    SystemConfig base;
    // StaticCap handler bus share; must bind to differentiate.
    base.memCtrl.handlerBusShare = 0.2;

    // The host worker pool saturates near 1.1 MQPS; the handler
    // cores near 6 MQPS; the load generator's own TX path near
    // 3 MQPS. Capping the grid at 2 MQPS keeps the generator open
    // loop while the host path is pushed well past its knee.
    const std::vector<double> qpsGrid =
        short_mode ? std::vector<double>{1e6, 2e6}
                   : std::vector<double>{0.5e6, 1e6, 1.5e6, 2e6};

    // Grid order: QPS major; placements minor, handler placement
    // once per arbitration policy.
    std::vector<Spec> specs;
    for (double qps : qpsGrid) {
        specs.push_back({qps, ServingPlacement::Dnic,
                         MemArbPolicy::HostPriority, "-"});
        specs.push_back({qps, ServingPlacement::Inic,
                         MemArbPolicy::HostPriority, "-"});
        specs.push_back({qps, ServingPlacement::NetDimmHost,
                         MemArbPolicy::HostPriority, "-"});
        specs.push_back({qps, ServingPlacement::NetDimmHandlers,
                         MemArbPolicy::HostPriority, "host-pri"});
        specs.push_back({qps, ServingPlacement::NetDimmHandlers,
                         MemArbPolicy::Fair, "fair"});
        specs.push_back({qps, ServingPlacement::NetDimmHandlers,
                         MemArbPolicy::StaticCap, "cap"});
    }

    SweepRunner runner(cli.jobs);

    std::printf("=== KV serving: open-loop Poisson load, %s, "
                "%u sweep workers ===\n",
                short_mode ? "short mode" : "full grid", runner.jobs());
    std::printf("%7s %-10s %-8s %6s %6s %5s %9s %9s %9s %9s %6s %5s "
                "%6s\n",
                "MQPS", "placement", "policy", "sent", "done", "lost",
                "p50(us)", "p99(us)", "p999(us)", ">20us", "hSrv",
                "ovfl", "busFr");

    std::vector<SweepCell<ServingResult>> cells;
    cells.reserve(specs.size());
    for (const Spec &s : specs) {
        char label[64];
        std::snprintf(label, sizeof(label), "%s/%s %.1fMqps",
                      placementName(s.placement), s.policy,
                      s.qps / 1e6);
        cells.push_back({label, [&base, s, short_mode] {
                             return runServing(
                                 base, cellParams(s, short_mode));
                         }});
    }
    std::vector<ServingResult> results = runner.run(cells);
    for (std::size_t i = 0; i < specs.size(); ++i)
        printRow(specs[i], results[i]);

    int failures = 0;

    // -- self-check 1: zero-handler config is bit-identical ------------
    {
        Spec hostSpec{1e6, ServingPlacement::NetDimmHost,
                      MemArbPolicy::HostPriority, "-"};
        ServingParams plain = cellParams(hostSpec, short_mode);
        ServingParams empty = plain;
        empty.placement = ServingPlacement::NetDimmHandlers;
        empty.emptyMatchTable = true;
        std::vector<SweepCell<ServingResult>> pair;
        pair.push_back({"golden plain", [&base, plain] {
                            return runServing(base, plain);
                        }});
        pair.push_back({"golden empty-table", [&base, empty] {
                            return runServing(base, empty);
                        }});
        std::vector<ServingResult> g = runner.run(pair);
        bool same = g[0].rtt.digest() == g[1].rtt.digest() &&
                    g[0].sent == g[1].sent &&
                    g[0].completed == g[1].completed &&
                    g[1].handlerServed == 0;
        std::printf("\nzero-handler golden (empty match table == "
                    "plain NetDIMM): %s\n",
                    same ? "ok" : "MISMATCH");
        if (!same) {
            std::printf("  plain: %s\n  empty: %s\n",
                        g[0].rtt.digest().c_str(),
                        g[1].rtt.digest().c_str());
            ++failures;
        }
    }

    // -- self-check 2: handlers beat host processing at peak load ------
    {
        const Spec *host = nullptr, *hand = nullptr;
        const ServingResult *hostR = nullptr, *handR = nullptr;
        double peak = qpsGrid.back();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (specs[i].qps != peak)
                continue;
            if (specs[i].placement == ServingPlacement::NetDimmHost) {
                host = &specs[i];
                hostR = &results[i];
            }
            if (specs[i].placement ==
                    ServingPlacement::NetDimmHandlers &&
                specs[i].arb == MemArbPolicy::HostPriority) {
                hand = &specs[i];
                handR = &results[i];
            }
        }
        double hostP99 = pctUs(*hostR, 0.99);
        double handP99 = pctUs(*handR, 0.99);
        bool win = handP99 < hostP99;
        std::printf("offload win at %.1f MQPS (handler p99 %.3fus < "
                    "host p99 %.3fus): %s\n",
                    host->qps / 1e6, handP99, hostP99,
                    win ? "ok" : "VIOLATED");
        (void)hand;
        if (!win)
            ++failures;
    }

    // -- interference: host traffic vs handler traffic on the local
    // MC. An MLC-style injector plus a dependent-load probe hammer
    // NetDIMM-window pages (host requestor class) while the handler
    // cores serve KV traffic (handler class); the arbitration policy
    // decides who waits. StaticCap runs with a deliberately binding
    // 2% handler share (the cap is against wall-clock bus time, and
    // the handler streams only need ~3% of it).
    {
        double qps = 2e6;
        struct ISpec
        {
            ServingPlacement placement;
            MemArbPolicy arb;
            const char *policy;
            double share;
            bool corun; ///< injector + probe on
        };
        std::vector<ISpec> ispecs = {
            {ServingPlacement::NetDimmHandlers,
             MemArbPolicy::HostPriority, "host-pri", 0.2, false},
            {ServingPlacement::NetDimmHandlers,
             MemArbPolicy::HostPriority, "host-pri", 0.2, true},
            {ServingPlacement::NetDimmHandlers, MemArbPolicy::Fair,
             "fair", 0.2, true},
            {ServingPlacement::NetDimmHandlers,
             MemArbPolicy::StaticCap, "cap10", 0.10, true},
        };
        std::vector<SweepCell<ServingResult>> icells;
        for (const ISpec &is : ispecs) {
            Spec s{qps, is.placement, is.arb, is.policy};
            ServingParams p = cellParams(s, short_mode);
            SystemConfig cfg = base;
            cfg.memCtrl.handlerBusShare = is.share;
            p.probe = is.corun;
            p.mlc = is.corun;
            // Fat values: 2 KB GETs make the handler class a real
            // bandwidth contender so the policy choice shows up in
            // both columns, not just under the binding cap.
            p.valueBytes = 2048;
            icells.push_back(
                {std::string("interf ") + is.policy +
                     (is.corun ? "" : " idle"),
                 [cfg, p] { return runServing(cfg, p); }});
        }
        std::vector<ServingResult> ir = runner.run(icells);
        std::printf("\n-- local-MC interference at %.1f MQPS "
                    "(MLC injector + dependent-load probe in the "
                    "NetDIMM window) --\n",
                    qps / 1e6);
        std::printf("%-8s %-6s %10s %8s %8s %9s %9s %6s\n", "policy",
                    "corun", "probe(ns)", "samples", "mlcGB/s",
                    "p99(us)", "p999(us)", "busFr");
        for (std::size_t i = 0; i < ispecs.size(); ++i) {
            std::printf(
                "%-8s %-6s %10.1f %8llu %8.2f %9.3f %9.3f %6.3f\n",
                ispecs[i].policy, ispecs[i].corun ? "yes" : "no",
                ir[i].probeMeanNs,
                (unsigned long long)ir[i].probeAccesses,
                ir[i].mlcGBps, pctUs(ir[i], 0.99),
                pctUs(ir[i], 0.999), ir[i].handlerBusFraction);
        }
    }

    if (failures) {
        std::printf("\n%d self-check(s) FAILED\n", failures);
        return 1;
    }
    std::printf("\nall self-checks passed\n");
    return 0;
}
