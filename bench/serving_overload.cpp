/**
 * @file
 * Overload and reliability campaign for the KV serving stack
 * (DESIGN.md §14): what happens past saturation, and what the
 * reliability layer buys back.
 *
 * Three tables:
 *
 *  1. Overload sweep — NetDIMM host-path serving pushed from below
 *     its ~1.1 MQPS worker-pool knee to well past it, with shedding
 *     off (unbounded FIFO admission) and on (bounded queue +
 *     deadline-aware dequeue, tail-drop and GETs-first flavours).
 *     Goodput (replies within deadline) is the headline: shedding on
 *     plateaus near capacity, shedding off collapses toward zero as
 *     every admitted request rots in the queue.
 *
 *  2. Handler-fault sweep — NetDIMM handler placement under injected
 *     core hangs, kernel crashes, and KV checksum corruption. Every
 *     fault must be recovered exactly once (crash/corrupt by host
 *     fallback, hang by the core watchdog) so the registry ledger
 *     closes and no request is lost.
 *
 *  3. Hedging under faults — the same faulty handler stage with the
 *     client racing a duplicate request at the running p99; the
 *     duplicate usually lands on a healthy core and rescues the tail.
 *
 * Self-checks (exit nonzero on violation):
 *  - deadline metadata is free: a deadline-only cell (no retries, no
 *    shedding) reproduces the plain serving cell bit-for-bit;
 *  - zero-rate fault wiring is free: fault domains wired with all
 *    probabilities zero reproduce the unwired cell bit-for-bit;
 *  - goodput plateau with shedding on, collapse with it off;
 *  - every fault row closes its recovery ledger and answers every
 *    request.
 */

#include <cstdio>
#include <vector>

#include "harness/SweepRunner.hh"
#include "sim/Logging.hh"
#include "workload/RpcServingLoad.hh"

using namespace netdimm;

namespace
{

/** Per-RPC deadline for every reliability cell. */
constexpr double kDeadlineUs = 30.0;

/** Shedding mode of one overload row. */
enum class Mode
{
    Off,      ///< unbounded admission, no deadline dequeue
    Tail,     ///< bounded + tail-drop + deadline dequeue
    GetsFirst ///< bounded + GET-evicting + deadline dequeue
};

const char *
modeName(Mode m)
{
    switch (m) {
    case Mode::Off:
        return "off";
    case Mode::Tail:
        return "tail";
    case Mode::GetsFirst:
        return "gets1st";
    }
    return "?";
}

ServingParams
overloadParams(double qps, Mode m, bool short_mode)
{
    ServingParams p;
    p.placement = ServingPlacement::NetDimmHost;
    p.qps = qps;
    p.requests = short_mode ? 1200 : 4000;
    p.warmup = short_mode ? 150 : 400;
    p.deadline = Tick(kDeadlineUs * tickPerUs);
    p.maxRetries = 1;
    p.retryTimeout = 2 * p.deadline;
    if (m != Mode::Off) {
        // Bounded admission sized so an admitted request can still
        // make the deadline: ~12 service times of queueing plus the
        // dequeue margin leaves headroom under the 30us budget.
        p.admitDepth = 12;
        p.shed = m == Mode::Tail ? ShedPolicy::Tail
                                 : ShedPolicy::GetsFirst;
        p.dropExpiredAtDequeue = true;
        p.dequeueMargin = usToTicks(10);
    }
    return p;
}

/**
 * Goodput rate in MQPS: in-deadline replies over the measured send
 * window (requests / qps). Simulated wall-clock would understate the
 * rate — the event queue idles well past the last reply.
 */
double
goodMqps(const ServingResult &r, const ServingParams &p)
{
    return double(r.goodRpcs) / (double(p.requests) / p.qps * 1e6);
}

double
pctUs(const ServingResult &r, double q)
{
    return r.rtt.percentile(q) / double(tickPerUs);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    SweepCli cli = parseSweepCli(argc, argv, sweepShort | sweepJobs);
    const bool short_mode = cli.shortMode;
    SystemConfig base;
    SweepRunner runner(cli.jobs);
    int failures = 0;

    std::printf("=== serving overload & reliability: %s, "
                "%u sweep workers, deadline %.0fus ===\n",
                short_mode ? "short mode" : "full grid",
                runner.jobs(), kDeadlineUs);

    // -- table 1: offered load past saturation x shedding policy -------
    // The host worker pool saturates near 1.1 MQPS; the sweep
    // brackets the knee. Grid order: QPS major, mode minor.
    const std::vector<double> qpsGrid =
        short_mode
            ? std::vector<double>{0.8e6, 2e6}
            : std::vector<double>{0.8e6, 1.2e6, 1.6e6, 2e6, 2.4e6};
    const std::vector<Mode> modes = {Mode::Off, Mode::Tail,
                                     Mode::GetsFirst};

    struct OSpec
    {
        double qps;
        Mode mode;
    };
    std::vector<OSpec> ospecs;
    for (double qps : qpsGrid)
        for (Mode m : modes)
            ospecs.push_back({qps, m});

    std::vector<SweepCell<ServingResult>> ocells;
    std::vector<ServingParams> oparams;
    for (const OSpec &s : ospecs) {
        char label[64];
        std::snprintf(label, sizeof(label), "overload %.1fM/%s",
                      s.qps / 1e6, modeName(s.mode));
        ServingParams p = overloadParams(s.qps, s.mode, short_mode);
        oparams.push_back(p);
        ocells.push_back(
            {label, [&base, p] { return runServing(base, p); }});
    }
    std::vector<ServingResult> ores = runner.run(ocells);

    std::printf("\n%7s %-8s %6s %6s %6s %6s %8s %9s %9s %6s %6s %6s "
                "%5s %5s\n",
                "MQPS", "shed", "sent", "done", "good", "lost",
                "gdMQPS", "p50(us)", "p99(us)", "qFull", "gets",
                "expd", "retry", "abdn");
    for (std::size_t i = 0; i < ospecs.size(); ++i) {
        const ServingResult &r = ores[i];
        std::printf("%7.2f %-8s %6llu %6llu %6llu %6llu %8.3f %9.3f "
                    "%9.3f %6llu %6llu %6llu %5llu %5llu\n",
                    ospecs[i].qps / 1e6, modeName(ospecs[i].mode),
                    (unsigned long long)r.sent,
                    (unsigned long long)r.completed,
                    (unsigned long long)r.goodRpcs,
                    (unsigned long long)r.lost,
                    goodMqps(r, oparams[i]), pctUs(r, 0.50),
                    pctUs(r, 0.99),
                    (unsigned long long)r.shedQueueFull,
                    (unsigned long long)r.shedGets,
                    (unsigned long long)r.shedExpired,
                    (unsigned long long)r.retries,
                    (unsigned long long)r.abandoned);
    }

    // -- table 2: handler faults x rate ---------------------------------
    const std::vector<double> rateGrid =
        short_mode ? std::vector<double>{0.0, 1e-2}
                   : std::vector<double>{0.0, 2e-3, 1e-2, 3e-2};
    std::vector<SweepCell<ServingResult>> fcells;
    for (double rate : rateGrid) {
        SystemConfig cfgF = base;
        cfgF.faults.enabled = true;
        cfgF.faults.handlerHangProb = rate / 4;
        cfgF.faults.handlerCrashProb = rate / 2;
        cfgF.faults.kvCorruptProb = rate;
        ServingParams p;
        p.placement = ServingPlacement::NetDimmHandlers;
        p.qps = 2e6;
        p.requests = short_mode ? 1200 : 4000;
        p.warmup = short_mode ? 150 : 400;
        p.deadline = Tick(kDeadlineUs * tickPerUs);
        char label[64];
        std::snprintf(label, sizeof(label), "faults %.0e", rate);
        fcells.push_back(
            {label, [cfgF, p] { return runServing(cfgF, p); }});
    }
    std::vector<ServingResult> fres = runner.run(fcells);

    std::printf("\n-- handler faults at 2.0 MQPS (hang rate/4, crash "
                "rate/2, corrupt rate) --\n");
    std::printf("%8s %6s %6s %5s %5s %5s %5s %6s %6s %5s %5s %5s "
                "%-6s %9s\n",
                "rate", "sent", "done", "hang", "crash", "nack",
                "wdog", "drain", "fback", "inj", "rec", "unrec",
                "ledger", "p99(us)");
    for (std::size_t i = 0; i < rateGrid.size(); ++i) {
        const ServingResult &r = fres[i];
        std::printf("%8.0e %6llu %6llu %5llu %5llu %5llu %5llu "
                    "%6llu %6llu %5llu %5llu %5llu %-6s %9.3f\n",
                    rateGrid[i], (unsigned long long)r.sent,
                    (unsigned long long)r.completed,
                    (unsigned long long)r.handlerHangFaults,
                    (unsigned long long)r.handlerCrashFaults,
                    (unsigned long long)r.handlerCorruptNacks,
                    (unsigned long long)r.watchdogResets,
                    (unsigned long long)r.drainedToHost,
                    (unsigned long long)r.faultFallbacks,
                    (unsigned long long)r.faultsInjected,
                    (unsigned long long)r.faultsRecovered,
                    (unsigned long long)r.faultsUnrecovered,
                    r.ledgerClosed ? "closed" : "OPEN",
                    pctUs(r, 0.99));
    }

    // -- table 3: rescuing the fault tail: retry vs hedge ---------------
    // Handler faults put the victims on the slow recovery path (a
    // hung core waits ~60us for the watchdog). With capacity
    // headroom, a client retry after a short timeout — or a hedged
    // duplicate raced at the running p99 — lands on a healthy core
    // and rescues the request back under its deadline.
    {
        std::vector<SweepCell<ServingResult>> hcells;
        const char *hnames[] = {"none", "retry", "hedge"};
        for (int mode = 0; mode < 3; ++mode) {
            SystemConfig cfgF = base;
            cfgF.faults.enabled = true;
            cfgF.faults.handlerHangProb = 2e-3;
            cfgF.faults.handlerCrashProb = 5e-3;
            cfgF.faults.kvCorruptProb = 1e-2;
            ServingParams p;
            p.placement = ServingPlacement::NetDimmHandlers;
            p.qps = 1e6;
            p.requests = short_mode ? 1200 : 4000;
            p.warmup = short_mode ? 150 : 400;
            p.deadline = Tick(kDeadlineUs * tickPerUs);
            if (mode == 1) {
                p.maxRetries = 2;
                p.retryTimeout = usToTicks(12);
            } else if (mode == 2) {
                p.hedge = true;
                p.hedgeFloor = usToTicks(4);
            }
            hcells.push_back(
                {std::string("rescue ") + hnames[mode],
                 [cfgF, p] { return runServing(cfgF, p); }});
        }
        std::vector<ServingResult> hres = runner.run(hcells);
        std::printf("\n-- rescuing the fault tail at 1.0 MQPS "
                    "(handler hangs/crashes/corruption) --\n");
        std::printf("%-7s %6s %6s %6s %6s %6s %9s %9s %7s\n",
                    "policy", "sent", "done", "good", "retry",
                    "hedges", "p99(us)", "p999(us)", "good%%");
        for (std::size_t i = 0; i < hres.size(); ++i) {
            const ServingResult &r = hres[i];
            std::printf("%-7s %6llu %6llu %6llu %6llu %6llu %9.3f "
                        "%9.3f %6.2f%%\n",
                        hnames[i], (unsigned long long)r.sent,
                        (unsigned long long)r.completed,
                        (unsigned long long)r.goodRpcs,
                        (unsigned long long)r.retries,
                        (unsigned long long)r.hedges,
                        pctUs(r, 0.99), pctUs(r, 0.999),
                        100.0 * r.rtt.fractionWithinDeadline(
                                    Tick(kDeadlineUs * tickPerUs)));
        }
        // Either rescue policy must beat hands-off on the deadline
        // tail: strictly fewer blown deadlines among measured RPCs.
        bool rescue = hres[1].goodRpcs > hres[0].goodRpcs &&
                      hres[2].goodRpcs > hres[0].goodRpcs;
        std::printf("fault-tail rescue (retry %llu and hedge %llu "
                    "good > hands-off %llu): %s\n",
                    (unsigned long long)hres[1].goodRpcs,
                    (unsigned long long)hres[2].goodRpcs,
                    (unsigned long long)hres[0].goodRpcs,
                    rescue ? "ok" : "VIOLATED");
        if (!rescue)
            ++failures;
    }

    // -- self-check 1: deadline metadata is byte-free -------------------
    // A cell with only a deadline set (no retries, no shedding, no
    // faults) must reproduce the PR 6 serving cell bit-for-bit: the
    // deadline is post-processing, not behaviour.
    {
        ServingParams plain;
        plain.placement = ServingPlacement::NetDimmHost;
        plain.qps = 1e6;
        plain.requests = short_mode ? 1200 : 4000;
        plain.warmup = short_mode ? 150 : 400;
        ServingParams dl = plain;
        dl.deadline = Tick(kDeadlineUs * tickPerUs);
        std::vector<SweepCell<ServingResult>> pair;
        pair.push_back({"golden plain", [&base, plain] {
                            return runServing(base, plain);
                        }});
        pair.push_back({"golden deadline-only", [&base, dl] {
                            return runServing(base, dl);
                        }});
        std::vector<ServingResult> g = runner.run(pair);
        bool same = g[0].rtt.digest() == g[1].rtt.digest() &&
                    g[0].sent == g[1].sent &&
                    g[0].completed == g[1].completed &&
                    g[1].retries == 0 && g[1].timeouts == 0 &&
                    g[1].shedQueueFull == 0 && g[1].shedExpired == 0;
        std::printf("\ndeadline-only golden (== plain serving cell): "
                    "%s\n",
                    same ? "ok" : "MISMATCH");
        if (!same) {
            std::printf("  plain:    %s\n  deadline: %s\n",
                        g[0].rtt.digest().c_str(),
                        g[1].rtt.digest().c_str());
            ++failures;
        }
    }

    // -- self-check 2: zero-rate fault wiring is byte-free --------------
    // Wired fault domains with all probabilities zero must reproduce
    // the unwired handler cell bit-for-bit (draws come from private
    // streams and never change the schedule).
    {
        ServingParams p;
        p.placement = ServingPlacement::NetDimmHandlers;
        p.qps = 1e6;
        p.requests = short_mode ? 1200 : 4000;
        p.warmup = short_mode ? 150 : 400;
        SystemConfig cfgZ = base;
        cfgZ.faults.enabled = true; // all probabilities stay 0.0
        std::vector<SweepCell<ServingResult>> pair;
        pair.push_back({"golden unwired", [&base, p] {
                            return runServing(base, p);
                        }});
        pair.push_back({"golden zero-rate", [cfgZ, p] {
                            return runServing(cfgZ, p);
                        }});
        std::vector<ServingResult> g = runner.run(pair);
        bool same = g[0].rtt.digest() == g[1].rtt.digest() &&
                    g[0].sent == g[1].sent &&
                    g[0].completed == g[1].completed &&
                    g[1].faultsInjected == 0 && g[1].ledgerClosed;
        std::printf("zero-rate fault golden (== unwired handler "
                    "cell): %s\n",
                    same ? "ok" : "MISMATCH");
        if (!same) {
            std::printf("  unwired:   %s\n  zero-rate: %s\n",
                        g[0].rtt.digest().c_str(),
                        g[1].rtt.digest().c_str());
            ++failures;
        }
    }

    // -- self-check 3: goodput plateau with shedding on -----------------
    // At the highest swept load, bounded admission + deadline-aware
    // dequeue must keep goodput within a factor of the pre-knee rate
    // instead of collapsing.
    {
        auto at = [&](double qps, Mode m) {
            for (std::size_t i = 0; i < ospecs.size(); ++i)
                if (ospecs[i].qps == qps && ospecs[i].mode == m)
                    return goodMqps(ores[i], oparams[i]);
            return 0.0;
        };
        double preKnee = at(qpsGrid.front(), Mode::Tail);
        double peakOn = at(qpsGrid.back(), Mode::Tail);
        double peakOff = at(qpsGrid.back(), Mode::Off);
        bool plateau = peakOn >= 0.5 * preKnee;
        std::printf("goodput plateau with shedding (%.3f MQPS at peak "
                    ">= half of %.3f pre-knee): %s\n",
                    peakOn, preKnee, plateau ? "ok" : "VIOLATED");
        if (!plateau)
            ++failures;
        bool collapse = peakOff <= 0.5 * peakOn;
        std::printf("goodput collapse without shedding (%.3f MQPS at "
                    "peak <= half of %.3f shed-on): %s\n",
                    peakOff, peakOn, collapse ? "ok" : "VIOLATED");
        if (!collapse)
            ++failures;
    }

    // -- self-check 4: fault rows close their ledgers -------------------
    {
        bool ok = true;
        for (std::size_t i = 0; i < rateGrid.size(); ++i) {
            const ServingResult &r = fres[i];
            if (!r.ledgerClosed || r.completed != r.sent ||
                r.faultFallbacks != r.faultsInjected ||
                r.watchdogResets < r.handlerHangFaults) {
                std::printf("  fault row %.0e: done=%llu/%llu "
                            "inj=%llu rec=%llu fback=%llu wdog=%llu "
                            "%s\n",
                            rateGrid[i],
                            (unsigned long long)r.completed,
                            (unsigned long long)r.sent,
                            (unsigned long long)r.faultsInjected,
                            (unsigned long long)r.faultsRecovered,
                            (unsigned long long)r.faultFallbacks,
                            (unsigned long long)r.watchdogResets,
                            r.ledgerClosed ? "closed" : "OPEN");
                ok = false;
            }
        }
        std::printf("fault recovery (every row: ledger closed, every "
                    "request answered, fallbacks == injections): "
                    "%s\n",
                    ok ? "ok" : "VIOLATED");
        if (!ok)
            ++failures;
    }

    if (failures) {
        std::printf("\n%d self-check(s) FAILED\n", failures);
        return 1;
    }
    std::printf("\nall self-checks passed\n");
    return 0;
}
