/**
 * @file
 * Whole-node crash/restart campaign over the replicated KV serving
 * cluster (DESIGN.md §15): four serving nodes behind a switch and a
 * consistent-hash shard map, swept over per-node crash rate x
 * replication factor x restart delay. Clients detect dead primaries
 * by deadline timeout and fail over to replicas; rebooted nodes
 * re-sync their shards from surviving peers before rejoining.
 *
 * Every cell is an independent simulation on the SweepRunner pool, so
 * the table is byte-identical at any --jobs.
 *
 * Self-checks (exit nonzero on violation):
 *  - durability: at replication >= 2, ZERO acknowledged writes are
 *    lost at every swept cell, and no read is stale under the
 *    read-your-writes rule;
 *  - closed fault ledger: every injected crash books its restart;
 *  - goodput proportionality: a crashy cell's goodput stays within a
 *    modeled bound of its zero-crash baseline, degrading with the
 *    measured dead-capacity fraction rather than collapsing;
 *  - R=1 negative control: without replicas, crashes provably lose
 *    acknowledged writes (the audit must report them);
 *  - handler placement: a crashy cluster on the on-DIMM handler
 *    placement still offloads after reboots (cold boot reinstalls the
 *    device KV, rejoin reinstalls the match rule) and loses nothing.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/SweepRunner.hh"
#include "sim/Logging.hh"
#include "workload/RpcServingLoad.hh"

using namespace netdimm;

namespace
{

struct Spec
{
    double crashRate; ///< per node, events / simulated second
    std::uint32_t replication;
    Tick restartDelay;
};

ServingParams
clusterParams(const Spec &s, bool short_mode)
{
    ServingParams p;
    p.placement = ServingPlacement::NetDimmHost;
    p.qps = 1e6;
    p.requests = short_mode ? 900 : 3000;
    p.warmup = short_mode ? 100 : 300;
    p.deadline = usToTicks(120);
    p.retryTimeout = usToTicks(15); // > healthy p99, << deadline
    p.maxRetries = 4;
    p.cluster.nodes = 4;
    p.cluster.replication = s.replication;
    p.cluster.crashRatePerSec = s.crashRate;
    p.cluster.restartDelay = s.restartDelay;
    return p;
}

double
goodFrac(const ServingResult &r, const ServingParams &p)
{
    return double(r.goodRpcs) / double(p.requests);
}

void
printRow(const Spec &s, const ServingParams &p,
         const ServingResult &r)
{
    std::printf(
        "%8.0f %2u %7.0f %6llu %6llu %6.1f%% %9.3f %4llu %4llu "
        "%8llu %5llu %6llu %5llu %6llu %6.1f%%\n",
        s.crashRate, s.replication, ticksToUs(s.restartDelay),
        (unsigned long long)r.sent, (unsigned long long)r.completed,
        100.0 * goodFrac(r, p),
        r.rtt.percentile(0.99) / double(tickPerUs),
        (unsigned long long)r.crashes, (unsigned long long)r.restarts,
        (unsigned long long)(r.resyncBytes / 1024),
        (unsigned long long)r.failoverRedirects,
        (unsigned long long)r.duplicateReplies,
        (unsigned long long)r.staleReads,
        (unsigned long long)r.lostAckedWrites,
        100.0 * r.deadFraction);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    SweepCli cli = parseSweepCli(argc, argv, sweepShort | sweepJobs);
    const bool short_mode = cli.shortMode;
    SystemConfig base;
    int failures = 0;

    // Crash rate x restart delay x replication. The zero-crash cell
    // per R anchors the goodput bound; the rates put a handful to a
    // dozen reboots inside the few-millisecond serving window.
    const std::vector<double> rates =
        short_mode ? std::vector<double>{0.0, 8e3}
                   : std::vector<double>{0.0, 2e3, 6e3};
    const std::vector<Tick> delays =
        short_mode ? std::vector<Tick>{usToTicks(150)}
                   : std::vector<Tick>{usToTicks(100), usToTicks(300)};
    const std::vector<std::uint32_t> reps = {2, 3};

    std::vector<Spec> specs;
    for (std::uint32_t r : reps)
        for (double rate : rates)
            for (Tick d : delays) {
                specs.push_back({rate, r, d});
                if (rate == 0.0)
                    break; // restart delay is moot without crashes
            }

    SweepRunner runner(cli.jobs);
    std::printf("=== serving failover: 4-node replicated KV cluster, "
                "%s, %u sweep workers ===\n",
                short_mode ? "short mode" : "full grid",
                runner.jobs());
    std::printf("%8s %2s %7s %6s %6s %7s %9s %4s %4s %8s %5s %6s "
                "%5s %6s %7s\n",
                "crash/s", "R", "rst(us)", "sent", "done", "good",
                "p99(us)", "crsh", "rst", "resyncKB", "redir", "dup",
                "stale", "lost", "dead");

    std::vector<SweepCell<ServingResult>> cells;
    cells.reserve(specs.size());
    for (const Spec &s : specs) {
        char label[64];
        std::snprintf(label, sizeof(label), "R%u rate%.0f rd%.0fus",
                      s.replication, s.crashRate,
                      ticksToUs(s.restartDelay));
        cells.push_back({label, [&base, s, short_mode] {
                             return runServing(
                                 base, clusterParams(s, short_mode));
                         }});
    }
    std::vector<ServingResult> results = runner.run(cells);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Spec &s = specs[i];
        const ServingResult &r = results[i];
        ServingParams p = clusterParams(s, short_mode);
        printRow(s, p, r);

        // -- per-cell invariants ---------------------------------------
        if (r.lostAckedWrites != 0) {
            std::printf("  ^ FAIL: %llu acked writes lost at R=%u\n",
                        (unsigned long long)r.lostAckedWrites,
                        s.replication);
            ++failures;
        }
        if (r.staleReads != 0) {
            std::printf("  ^ FAIL: %llu stale reads\n",
                        (unsigned long long)r.staleReads);
            ++failures;
        }
        if (r.crashes != r.restarts || !r.ledgerClosed) {
            std::printf("  ^ FAIL: open fault ledger (%llu crashes, "
                        "%llu restarts)\n",
                        (unsigned long long)r.crashes,
                        (unsigned long long)r.restarts);
            ++failures;
        }
        // Redirects CAN appear without crashes (a straggler trips
        // the retry timeout and gets suspected) -- that's the
        // detector working as designed. Crash machinery may not.
        if (s.crashRate == 0.0 &&
            (r.crashes != 0 || r.restarts != 0 ||
             r.resyncBytes != 0)) {
            std::printf("  ^ FAIL: phantom crashes in zero-crash "
                        "cell\n");
            ++failures;
        }
    }

    // The crashiest cell per R must actually exercise the machinery:
    // crashes fired, shards re-synced, clients redirected.
    for (std::uint32_t rep : reps) {
        const ServingResult *worst = nullptr;
        for (std::size_t i = 0; i < specs.size(); ++i)
            if (specs[i].replication == rep &&
                specs[i].crashRate == rates.back() &&
                specs[i].restartDelay == delays.front())
                worst = &results[i];
        if (!worst)
            continue;
        if (worst->crashes == 0 || worst->resyncBytes == 0 ||
            worst->failoverRedirects == 0) {
            std::printf("FAIL: max-rate R=%u cell too quiet "
                        "(crashes %llu, resyncB %llu, redirects "
                        "%llu)\n",
                        rep, (unsigned long long)worst->crashes,
                        (unsigned long long)worst->resyncBytes,
                        (unsigned long long)worst->failoverRedirects);
            ++failures;
        }
    }

    // -- goodput degrades proportionally to dead capacity --------------
    // A node-seconds fraction d of the cluster being dead or
    // resyncing costs at most the requests routed to dead primaries
    // before suspicion plus the failover retry latency pushed past
    // deadline. The 4x slack covers retry amplification; the floor
    // catches collapse (e.g. failover not engaging at all).
    for (std::uint32_t rep : reps) {
        double baseGood = -1.0;
        for (std::size_t i = 0; i < specs.size(); ++i)
            if (specs[i].replication == rep &&
                specs[i].crashRate == 0.0)
                baseGood =
                    goodFrac(results[i],
                             clusterParams(specs[i], short_mode));
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const Spec &s = specs[i];
            if (s.replication != rep || s.crashRate == 0.0)
                continue;
            ServingParams p = clusterParams(s, short_mode);
            double g = goodFrac(results[i], p);
            double bound =
                baseGood - 4.0 * results[i].deadFraction - 0.05;
            if (g < bound) {
                std::printf("FAIL: R=%u rate=%.0f goodput %.3f below "
                            "proportional bound %.3f (dead %.3f, "
                            "base %.3f)\n",
                            rep, s.crashRate, g, bound,
                            results[i].deadFraction, baseGood);
                ++failures;
            }
        }
    }

    // -- R=1 negative control + handler placement under crashes --------
    {
        Spec loss{short_mode ? 1.2e4 : 8e3, 1, usToTicks(150)};
        ServingParams lossP = clusterParams(loss, short_mode);
        Spec hand{short_mode ? 8e3 : 4e3, 2, usToTicks(150)};
        ServingParams handP = clusterParams(hand, short_mode);
        handP.placement = ServingPlacement::NetDimmHandlers;

        std::vector<SweepCell<ServingResult>> extra;
        extra.push_back({"R1 loss demo", [&base, lossP] {
                             return runServing(base, lossP);
                         }});
        extra.push_back({"handler crashy", [&base, handP] {
                             return runServing(base, handP);
                         }});
        std::vector<ServingResult> e = runner.run(extra);

        bool lost = e[0].crashes > 0 && e[0].lostAckedWrites > 0;
        std::printf("\nR=1 negative control (crashes lose acked "
                    "writes: %llu crashes, %llu lost): %s\n",
                    (unsigned long long)e[0].crashes,
                    (unsigned long long)e[0].lostAckedWrites,
                    lost ? "ok" : "VIOLATED");
        if (!lost)
            ++failures;

        bool handOk = e[1].crashes > 0 && e[1].handlerServed > 0 &&
                      e[1].lostAckedWrites == 0 &&
                      e[1].crashes == e[1].restarts &&
                      e[1].ledgerClosed;
        std::printf("handler placement under crashes (offload "
                    "%llu, crashes %llu, lost %llu): %s\n",
                    (unsigned long long)e[1].handlerServed,
                    (unsigned long long)e[1].crashes,
                    (unsigned long long)e[1].lostAckedWrites,
                    handOk ? "ok" : "VIOLATED");
        if (!handOk)
            ++failures;
    }

    if (failures) {
        std::printf("\n%d self-check(s) FAILED\n", failures);
        return 1;
    }
    std::printf("\nall self-checks passed\n");
    return 0;
}
