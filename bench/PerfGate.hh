/**
 * @file
 * Shared scaffolding of the simulator-performance benches
 * (sim_speedup, pdes_scale, hybrid_fidelity): their command line,
 * wall-clock and peak-RSS readings, and the committed-baseline
 * regression gate.
 */

#ifndef NETDIMM_BENCH_PERFGATE_HH
#define NETDIMM_BENCH_PERFGATE_HH

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <sys/resource.h>
#include <vector>

#include "harness/SweepRunner.hh"

namespace netdimm::bench
{

/**
 * Command line of a perf-gate bench: `--out FILE`, `--baseline FILE`
 * and `--tolerance F` on top of the shared sweep CLI.
 */
struct PerfGateCli
{
    /** Everything else, parsed by tryParseSweepCli(). */
    SweepCli sweep;
    /** `--out FILE`: where the bench writes its JSON report. */
    std::string out;
    /** `--baseline FILE`; empty = no baseline check. */
    std::string baseline;
    /** `--tolerance F`: allowed fractional regression, in [0, 1). */
    double tolerance = 0.20;
};

/**
 * Testable parser core: peels the perf-gate flags off @p args and
 * forwards the rest, with the declared SweepFlag set @p takes and
 * @p extra_flags, to tryParseSweepCli(). A missing value, or a
 * tolerance that is not a finite number in [0, 1), is an error.
 * `out` stays empty unless `--out` is given.
 */
inline bool
tryParsePerfGateCli(const std::vector<std::string> &args,
                    unsigned takes,
                    const std::vector<std::string> &extra_flags,
                    PerfGateCli &out, std::string &error)
{
    PerfGateCli cli;
    std::vector<std::string> rest;
    for (std::size_t a = 0; a < args.size(); ++a) {
        const std::string &arg = args[a];
        if (arg != "--out" && arg != "--baseline" &&
            arg != "--tolerance") {
            rest.push_back(arg);
            continue;
        }
        if (a + 1 >= args.size()) {
            error = arg + " requires a value";
            return false;
        }
        const std::string &v = args[++a];
        if (arg == "--out") {
            cli.out = v;
        } else if (arg == "--baseline") {
            cli.baseline = v;
        } else {
            char *end = nullptr;
            double t = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || !std::isfinite(t) ||
                t < 0.0 || t >= 1.0) {
                error = "--tolerance must be a number in [0, 1) (got '" +
                        v + "')";
                return false;
            }
            cli.tolerance = t;
        }
    }
    if (!tryParseSweepCli(rest, takes, extra_flags, cli.sweep, error))
        return false;
    out = cli;
    return true;
}

/**
 * Parse argv (the JSON report defaults to @p default_out); on any
 * error prints the diagnostic plus a usage line listing the declared
 * flags and `[--out FILE] [--baseline FILE] [--tolerance F]` to
 * stderr and exits 2.
 */
inline PerfGateCli
parsePerfGateCli(int argc, char **argv, const char *default_out,
                 unsigned takes,
                 const std::vector<std::string> &extra_flags = {})
{
    PerfGateCli cli;
    std::string error;
    std::vector<std::string> args(argv + 1, argv + argc);
    if (!tryParsePerfGateCli(args, takes, extra_flags, cli, error)) {
        std::fprintf(stderr,
                     "%s: %s\nusage: %s%s [--out FILE] "
                     "[--baseline FILE] [--tolerance F]\n",
                     argv[0], error.c_str(), argv[0],
                     sweepUsage(takes, extra_flags).c_str());
        std::exit(2);
    }
    if (cli.out.empty())
        cli.out = default_out;
    return cli;
}

/** Seconds elapsed since @p t0. */
inline double
wallSeconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Peak resident set size of this process, in KiB. */
inline long
peakRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** Pull `"key": <number>` out of a JSON blob; nan when absent. */
inline double
jsonNumber(const std::string &text, const char *key)
{
    std::string needle = std::string("\"") + key + "\":";
    std::size_t at = text.find(needle);
    if (at == std::string::npos)
        return std::nan("");
    return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

/** One gated metric: its baseline key and the value just measured. */
struct BaselineCheck
{
    const char *key;
    double current;
};

/**
 * Compare each of @p checks against the same key in the baseline
 * JSON file @p path: a check fails when current / baseline falls
 * below 1 - @p tolerance. Prints one `check   :` line per key, then
 * either "baseline check passed" or "FAIL: <what> beyond N%
 * tolerance" (to stderr).
 * @return 0 when every check passed, 1 on a regression, 2 when the
 *         file is unreadable or lacks a key.
 */
inline int
checkBaseline(const char *path, std::initializer_list<BaselineCheck> checks,
              double tolerance, const char *what)
{
    FILE *bf = std::fopen(path, "r");
    if (!bf) {
        std::fprintf(stderr, "cannot read baseline %s\n", path);
        return 2;
    }
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), bf)) > 0)
        text.append(buf, got);
    std::fclose(bf);

    bool ok = true;
    for (const BaselineCheck &c : checks) {
        double base = jsonNumber(text, c.key);
        if (std::isnan(base) || base <= 0) {
            std::fprintf(stderr, "baseline missing key %s\n", c.key);
            return 2;
        }
        double ratio = c.current / base;
        std::printf("check   : %s %.3g vs baseline %.3g "
                    "(%.2fx, floor %.2fx)\n",
                    c.key, c.current, base, ratio, 1.0 - tolerance);
        if (ratio < 1.0 - tolerance)
            ok = false;
    }
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s beyond %.0f%% tolerance\n", what,
                     tolerance * 100);
        return 1;
    }
    std::printf("baseline check passed\n");
    return 0;
}

} // namespace netdimm::bench

#endif // NETDIMM_BENCH_PERFGATE_HH
