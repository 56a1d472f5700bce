/**
 * @file
 * Shared scaffolding of the simulator-performance benches
 * (sim_speedup, pdes_scale, hybrid_fidelity): wall-clock and peak-RSS
 * readings, and the committed-baseline regression gate.
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

namespace netdimm::bench
{

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
