/**
 * @file
 * The benchmark's own arithmetic: the sample count a percentile
 * needs, medians and per-part minima of repetitions, SLO-rate selection over a
 * rate grid, span self time, failure fraction and shard imbalance. Header-only so the unit test
 * (test_benchmath.cpp) exercises exactly what the benchmark runs.
 */

#ifndef PERFBENCH_BENCHMATH_HH
#define PERFBENCH_BENCHMATH_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/**
 * True when quantile @p q of @p n samples has at least ten samples
 * beyond it, so the tail is measured, not extrapolated: p99 needs
 * 1000 samples, p50 needs 20.
 */
inline bool
percentileSupported(double q, std::uint64_t n)
{
    return double(n) * (1.0 - q) >= 10.0 - 1e-9;
}

/** Median of @p values (mean of the middle two for even counts). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Fold one repetition's per-part host times into @p best, the
 * per-part minimum over repetitions so far (parts are matched by
 * position).
 */
inline void
keepFastest(std::vector<double> &best, const std::vector<double> &parts)
{
    if (best.size() != parts.size()) {
        best = parts;
        return;
    }
    for (std::size_t i = 0; i < parts.size(); ++i)
        best[i] = std::min(best[i], parts[i]);
}

inline double
sumOf(const std::vector<double> &values)
{
    double s = 0.0;
    for (double v : values)
        s += v;
    return s;
}

/** One cell of a serving rate grid. */
struct GridPoint
{
    double rate = 0.0;  ///< offered load
    double p99 = 0.0;   ///< tail latency at that load
    std::uint64_t lost = 0;
};

/**
 * Highest grid rate whose p99 is at most @p slo with nothing lost; 0
 * when no point qualifies. Grid order does not matter.
 */
inline double
sloRate(const std::vector<GridPoint> &grid, double slo)
{
    double best = 0.0;
    for (const GridPoint &g : grid)
        if (g.p99 <= slo && g.lost == 0)
            best = std::max(best, g.rate);
    return best;
}

/** failed / attempted; 0 for an empty run. */
inline double
failFraction(std::uint64_t failed, std::uint64_t attempted)
{
    return attempted ? double(failed) / double(attempted) : 0.0;
}

/** max / mean of per-shard work; 1.0 is perfect balance. */
inline double
imbalance(const std::vector<std::uint64_t> &work)
{
    if (work.empty())
        return 0.0;
    std::uint64_t mx = 0;
    double sum = 0.0;
    for (std::uint64_t w : work) {
        mx = std::max(mx, w);
        sum += double(w);
    }
    return sum > 0.0 ? double(mx) / (sum / double(work.size())) : 0.0;
}

/** A closed interval of host time, nanoseconds. */
struct Interval
{
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/**
 * Self time of a span [@p parent] whose children cover @p children:
 * the span's duration minus the union of its children's intervals,
 * clipped to the span. Children may overlap (shard threads run
 * concurrently under one parent), so overlapping time is subtracted
 * once.
 */
inline std::int64_t
selfTime(Interval parent, std::vector<Interval> children)
{
    std::int64_t dur = std::max<std::int64_t>(0, parent.end - parent.start);
    std::sort(children.begin(), children.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    std::int64_t covered = 0;
    std::int64_t curS = 0, curE = 0;
    bool open = false;
    for (Interval c : children) {
        c.start = std::max(c.start, parent.start);
        c.end = std::min(c.end, parent.end);
        if (c.end <= c.start)
            continue;
        if (open && c.start <= curE) {
            curE = std::max(curE, c.end);
            continue;
        }
        if (open)
            covered += curE - curS;
        curS = c.start;
        curE = c.end;
        open = true;
    }
    if (open)
        covered += curE - curS;
    return dur - covered;
}

/** 64-bit FNV-1a: short, stable fingerprints of digest strings. */
inline std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** splitmix64: derives independent per-cell / per-flow streams from
 *  the workload seed. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace perfbench

#endif // PERFBENCH_BENCHMATH_HH
