/**
 * @file
 * The perfbench program. One invocation runs one workload:
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--golden FILE] [--trace-out FILE]
 *   perfbench --workload NAME --bless FILE   (rewrite golden digests)
 *   perfbench --catalog                      (metric catalog, JSON lines)
 *
 * A run repeats one fixed amount of simulated work ("rep") until
 * --seconds of host time have passed (at least kMinReps times) and
 * reports, summed over the rep's parts (simulations, serving cells),
 * each part's fastest host time, plus the median set-up time. Simulated results must repeat
 * exactly from rep to rep; at the default seed they must also match
 * the committed golden digests. With --trace 1 the run alternates
 * untraced and traced reps: the per-layer metrics come from the
 * traced ones, and the tracing overhead is the difference between
 * the traced and untraced fastest-part sums.
 *
 * The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. Any failed output
 * check makes the exit status nonzero.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <vector>

#include "BenchMath.hh"
#include "Workload.hh"
#include "sim/Logging.hh"

using namespace perfbench;

namespace
{

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 1000;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string golden;
    std::string traceOut;
    std::string bless;
    bool catalog = false;
};

bool
parseArgs(int argc, char **argv, Args &a, std::string &err)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--catalog") {
            a.catalog = true;
            continue;
        }
        if (i + 1 >= argc) {
            err = "missing value for " + k;
            return false;
        }
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end) {
                err = "bad --seed " + v;
                return false;
            }
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds >= 0.0)) {
                err = "bad --seconds " + v;
                return false;
            }
        } else if (k == "--trace") {
            if (v != "0" && v != "1") {
                err = "--trace takes 0 or 1";
                return false;
            }
            a.trace = v == "1";
        } else if (k == "--golden") {
            a.golden = v;
        } else if (k == "--trace-out") {
            a.traceOut = v;
        } else if (k == "--bless") {
            a.bless = v;
        } else {
            err = "unknown flag " + k;
            return false;
        }
    }
    if (!a.catalog && a.workload.empty()) {
        err = "--workload is required";
        return false;
    }
    return true;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "trace-replay")
        return makeTraceReplay();
    if (name == "kv-serving")
        return makeKvServing();
    if (name == "pdes-fabric")
        return makePdesFabric();
    if (name == "incast-hybrid")
        return makeIncastHybrid();
    return nullptr;
}

/** Golden file: "<workload> <digest-name> <fnv1a-hex>" per line. */
using Golden = std::map<std::string, std::string>;

Golden
readGolden(const std::string &path, const std::string &workload)
{
    Golden g;
    std::ifstream in(path);
    std::string w, name, hex;
    while (in >> w >> name >> hex)
        if (w == workload)
            g[name] = hex;
    return g;
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

int
bless(const Args &a, Workload &w)
{
    std::vector<std::string> keep;
    {
        std::ifstream in(a.bless);
        std::string line;
        while (std::getline(in, line))
            if (line.rfind(a.workload + " ", 0) != 0 && !line.empty())
                keep.push_back(line);
    }
    Digests d = w.reference(kDefaultSeed);
    std::ofstream out(a.bless);
    for (const std::string &l : keep)
        out << l << "\n";
    for (const auto &[name, digest] : d)
        out << a.workload << " " << name << " " << hex64(fnv1a(digest))
            << "\n";
    std::fprintf(stderr, "blessed %zu digest(s) for %s\n", d.size(),
                 a.workload.c_str());
    return out ? 0 : 2;
}

/** The metric catalog, one JSON object per line, for keeping
 *  BENCHMARK.json in step with the code. */
void
printCatalog()
{
    auto dump = [](const char *kind, const std::vector<MetricDef> &defs) {
        for (const MetricDef &m : defs)
            std::printf("{\"kind\": \"%s\", \"name\": \"%s\", "
                        "\"unit\": \"%s\", \"better\": \"%s\"}\n",
                        kind, m.name, m.unit, m.better);
    };
    dump("end_to_end", endToEndMetrics());
    dump("per_layer", perLayerMetrics());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/** JSON number with every significant digit; non-finite -> 0. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    netdimm::setQuiet(true);
    Args a;
    std::string err;
    if (!parseArgs(argc, argv, a, err)) {
        std::fprintf(stderr,
                     "perfbench: %s\nusage: perfbench --workload "
                     "{trace-replay,kv-serving,pdes-fabric,"
                     "incast-hybrid} [--seed N] [--seconds S] "
                     "[--trace 0|1] [--golden FILE] [--trace-out FILE] "
                     "[--bless FILE] | --catalog\n",
                     err.c_str());
        return 2;
    }
    if (a.catalog) {
        printCatalog();
        return 0;
    }
    std::unique_ptr<Workload> w = makeWorkload(a.workload);
    if (!w) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n",
                     a.workload.c_str());
        return 2;
    }
    if (!a.bless.empty())
        return bless(a, *w);

    using clock = std::chrono::steady_clock;
    auto deadline =
        clock::now() + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(a.seconds));

    std::vector<std::string> failures;
    // Per-part fastest host times of untraced and traced reps.
    std::vector<double> bestWall, bestCpu, bestTraced;
    std::vector<double> wall, setup;
    std::uint64_t attempted = 0, failed = 0, events = 0;
    Digests first;
    Tracer tracer;
    LayerSeconds self{};
    int traced = 0;
    for (int i = 0; i < kMaxReps; ++i) {
        bool traceThis = a.trace && i % 2 == 1;
        RepResult r = w->rep(a.seed, traceThis ? &tracer : nullptr);
        attempted += r.attempted;
        failed += r.failed;
        for (std::string &f : r.checkFailures)
            failures.push_back(std::move(f));
        if (i == 0)
            first = r.digests;
        else if (r.digests != first)
            failures.push_back("simulated results differ between rep 1 "
                               "and rep " +
                               std::to_string(i + 1));
        if (traceThis) {
            tracer.fold(self);
            keepFastest(bestTraced, r.wallParts);
            ++traced;
        } else {
            wall.push_back(sumOf(r.wallParts));
            setup.push_back(r.setupS);
            keepFastest(bestWall, r.wallParts);
            keepFastest(bestCpu, r.cpuParts);
            events = r.events;
        }
        int done = i + 1;
        if (done >= (a.trace ? 2 * kMinReps : kMinReps) &&
            clock::now() >= deadline && (!a.trace || done % 2 == 0))
            break;
    }

    double rssMb = peakRssMb();
    Values sim;
    w->finish(a.seed, sim, failures);
    if (!percentileSupported(0.99, std::uint64_t(sim["sim.lat_n"])))
        failures.push_back("sim_p99_us rests on fewer than 1000 samples");

    if (a.seed == kDefaultSeed && !a.golden.empty()) {
        Golden g = readGolden(a.golden, a.workload);
        if (g.empty())
            failures.push_back("no golden digests for " + a.workload +
                               " in " + a.golden);
        for (const auto &[name, digest] : first) {
            auto it = g.find(name);
            std::string got = hex64(fnv1a(digest));
            if (it == g.end() || it->second != got)
                failures.push_back("digest " + name + " = " + got +
                                   ", golden " +
                                   (it == g.end() ? "missing"
                                                  : it->second));
        }
    }

    // Host time: each part's fastest rep, summed. Interference from
    // other tenants only ever slows a part down, by up to half for
    // seconds at a time (NOTES.md), so the lower envelope is the
    // program's own cost. Set-up time is the median of every rep's.
    double wallBest = sumOf(bestWall);
    Values out;
    out["wall_s"] = wallBest;
    out["setup_s"] = median(setup);
    out["cpu_s"] = sumOf(bestCpu);
    out["peak_rss_mb"] = rssMb;
    for (const auto &[k, v] : sim)
        out[k] = v;
    out["sim.events"] = double(events);
    out["sim.ns_per_event"] =
        events ? wallBest * 1e9 / double(events) : 0.0;
    if (a.trace) {
        double n = double(traced);
        for (std::size_t l = 0; l < numLayers; ++l)
            out[std::string("host.") + layerName(Layer(l)) + ".self_s"] =
                self[l] / n;
        out["trace.overhead_s"] = sumOf(bestTraced) - wallBest;
        out["trace.spans"] = double(tracer.recorded()) / n;
        if (!a.traceOut.empty() && !tracer.write(a.traceOut))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         a.traceOut.c_str());
    }
    if (!failures.empty())
        failed += failures.size();
    out["fail_frac"] = failFraction(failed, attempted);

    std::printf("workload %s seed %llu: %zu untraced, %d traced rep(s)\n",
                a.workload.c_str(), (unsigned long long)a.seed,
                wall.size(), traced);
    std::printf("  untraced rep wall (s):");
    for (double t : wall)
        std::printf(" %.4f", t);
    std::printf("\n");
    w->describe(out);
    for (const MetricDef &m : endToEndMetrics())
        std::printf("  %-22s %14.6g %s\n", m.name, out[m.name], m.unit);
    for (const std::string &f : failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());

    bool correct = failures.empty();
    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    const std::vector<MetricDef> &defs =
        a.trace ? perLayerMetrics() : endToEndMetrics();
    for (std::size_t i = 0; i < defs.size(); ++i) {
        auto it = out.find(defs[i].name);
        double v = it == out.end() ? 0.0 : it->second;
        js << (i ? ", " : "") << "\"" << defs[i].name
           << "\": {\"value\": " << num(v) << ", \"unit\": \""
           << defs[i].unit << "\"}";
    }
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
