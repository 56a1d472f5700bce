/**
 * @file
 * What every benchmark workload provides to main.cpp,
 * plus the metric catalog: the end-to-end and per-layer metric names,
 * units and directions that BENCHMARK.json declares.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "Trace.hh"

namespace perfbench
{

/** One catalog entry. */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better; ///< "lower" or "higher"
};

/** End-to-end metrics: reported by every workload's untraced run. */
const std::vector<MetricDef> &endToEndMetrics();
/** Per-layer metrics: reported by every workload's traced run; 0
 *  where the workload does not exercise the layer. */
const std::vector<MetricDef> &perLayerMetrics();

/** Metric values by name; main.cpp emits them in catalog order. */
using Values = std::map<std::string, double>;

/** Digest fingerprints by name (simulated results, exact per seed). */
using Digests = std::vector<std::pair<std::string, std::string>>;

/** Host-side cost and output of one repetition. */
struct RepResult
{
    double setupS = 0.0; ///< building nodes/fabric/shards, inputs
    /** Host seconds from first event to drain, per independent part
     *  of the rep (one simulation or serving cell each). */
    std::vector<double> wallParts;
    /** Process user+sys seconds over the same parts (PDES: per shard
     *  thread). */
    std::vector<double> cpuParts;
    std::uint64_t events = 0;
    std::uint64_t attempted = 0; ///< frames / RPCs / probes offered
    std::uint64_t failed = 0;    ///< of those, not delivered
    /** Per-output-check failure messages (empty = all held). */
    std::vector<std::string> checkFailures;
    /** Exact simulated results; must repeat rep to rep. */
    Digests digests;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** One fixed amount of simulated work, built from @p seed. */
    virtual RepResult rep(std::uint64_t seed, Tracer *tracer) = 0;

    /**
     * Simulated metrics and layer counters of the last rep, plus
     * anything computed untimed after the reps (references). Fills
     * sim_p50_us / sim_p99_us and the per-layer names it owns.
     */
    virtual void finish(std::uint64_t seed, Values &sim,
                        std::vector<std::string> &failures) = 0;

    /** Human-readable lines (every headline metric with its unit and
     *  sample count), printed before the JSON result. */
    virtual void describe(const Values &sim) const = 0;

    /** Digests committed for the default seed (see golden.txt). The
     *  default is one rep's digests; PDES uses det-merge. */
    virtual Digests reference(std::uint64_t seed);
};

/** kv-serving cell names, in run order (every cell). */
const std::vector<std::string> &kvCellNames();
/** The kv-serving cells that run the MLC injector and probe. */
const std::vector<std::string> &kvInterferenceCellNames();

std::unique_ptr<Workload> makeTraceReplay();
std::unique_ptr<Workload> makeKvServing();
std::unique_ptr<Workload> makePdesFabric();
std::unique_ptr<Workload> makeIncastHybrid();

/** Process user+sys CPU seconds so far. */
double processCpuSeconds();
/** Calling thread's CPU seconds so far. */
double threadCpuSeconds();

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
