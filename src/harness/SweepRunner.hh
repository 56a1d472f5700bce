/**
 * @file
 * Parallel sweep execution for embarrassingly-parallel campaign
 * grids (fault campaigns, failover flap grids, NIC-comparison
 * sweeps, trace replays across seeds).
 *
 * A SweepRunner owns a pool of up to jobs() worker threads, started
 * lazily: never more than the cells queued so far, so a large --jobs
 * on a small grid starts only as many threads as there are cells.
 * run() takes a vector of cells — each a label plus a factory
 * returning that cell's result struct — executes them on the
 * workers, and returns the results in grid (input) order, so a
 * caller that prints rows after run() emits byte-identical output no
 * matter how many jobs executed the grid.
 *
 * The cell isolation contract (DESIGN.md §12) makes this sound:
 *
 *  - a cell builds its ENTIRE simulation inside its factory — its own
 *    EventQueue, nodes, fabric, flows — and returns a plain value;
 *  - a cell may capture shared IMMUTABLE inputs by const reference
 *    (a pre-synthesized trace, a SystemConfig template, the sweep
 *    axes) and its own cell spec by value; it must not touch mutable
 *    state owned by another cell or by the caller;
 *  - everything mutable the simulator core used to keep in process
 *    globals is instance- or thread-scoped: packet ids come from the
 *    cell's EventQueue (EventQueue::allocPacketId()) and object
 *    pools are thread-local (sim/Pool.hh);
 *  - cells run identical code at jobs=1 and jobs=N, so any
 *    divergence between the two tables is a cross-cell leak — the
 *    jobs-invariance tests assert byte-identical serialized tables.
 *
 * A throwing cell does not tear down the sweep: every other cell
 * still completes, then run() reports the FIRST failing cell in grid
 * order (deterministic regardless of jobs) as a SweepCellError
 * carrying the cell's grid coordinates.
 */

#ifndef NETDIMM_HARNESS_SWEEPRUNNER_HH
#define NETDIMM_HARNESS_SWEEPRUNNER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace netdimm
{

/** One unit of sweep work: a grid label plus its simulation factory. */
template <typename R>
struct SweepCell
{
    /** Grid coordinates for reports, e.g. "ecc rate=0.010". */
    std::string label;
    /** Builds, runs and tears down the cell's simulation. */
    std::function<R()> fn;
};

/** A cell failed; carries its grid coordinates. */
class SweepCellError : public std::runtime_error
{
  public:
    SweepCellError(std::size_t index, std::string label,
                   const std::string &what)
        : std::runtime_error("sweep cell #" + std::to_string(index) +
                             " [" + label + "] failed: " + what),
          _index(index), _label(std::move(label))
    {}

    /** Grid-order index of the failed cell. */
    std::size_t index() const { return _index; }
    /** The failed cell's label. */
    const std::string &label() const { return _label; }

  private:
    std::size_t _index;
    std::string _label;
};

/**
 * Thread pool of at most jobs() workers executing sweep cells.
 *
 * Cells are claimed in grid order (lowest index first) but finish in
 * any order; results land in a pre-sized vector indexed by cell, so
 * collection is deterministic. All cells — even at jobs=1 — run on
 * worker threads, never on the caller's thread.
 */
class SweepRunner
{
  public:
    /** @param jobs worker count; 0 = hardware concurrency. */
    explicit SweepRunner(unsigned jobs = 0);

    /** Joins the workers; pending work must have completed. */
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** The worker limit. */
    unsigned jobs() const { return _jobs; }

    /**
     * Worker threads started so far: min(jobs(), cells queued by
     * all run() calls).
     */
    std::size_t threadsStarted() const { return _workers.size(); }

    /** Total cells executed (all run() calls, all workers). */
    std::uint64_t cellsExecuted() const { return _cellsExecuted; }

    /**
     * Execute every cell and return results in grid order. Blocks
     * until all cells finish. If any cell threw, throws
     * SweepCellError for the first failing cell in grid order after
     * every other cell has completed.
     */
    template <typename R>
    std::vector<R>
    run(std::vector<SweepCell<R>> cells)
    {
        std::vector<R> results(cells.size());
        runErased(cells.size(),
                  [&](std::size_t i) { results[i] = cells[i].fn(); },
                  [&](std::size_t i) -> const std::string & {
                      return cells[i].label;
                  });
        return results;
    }

  private:
    /** Type-erased core of run(). */
    void runErased(std::size_t n,
                   const std::function<void(std::size_t)> &exec,
                   const std::function<const std::string &(
                       std::size_t)> &label);

    void workerMain();

    using Job = std::function<void()>;

    unsigned _jobs;
    std::vector<std::thread> _workers;
    /** Cells executed by all run() calls. */
    std::atomic<std::uint64_t> _cellsExecuted{0};
    /** Cells queued by all run() calls. */
    std::uint64_t _cellsQueued = 0;

    std::mutex _m;
    std::condition_variable _cv;
    std::deque<Job> _queue;
    bool _shutdown = false;
};

/**
 * Simulation fidelity selected on the command line (`--fidelity`).
 * Packet runs everything packet-level (the default: all goldens are
 * produced in this mode and stay byte-identical); Hybrid runs bulk
 * flows fluid with packet-level witnesses and handoff at points of
 * interest (DESIGN.md §17); Fluid runs every flow rate-modeled.
 */
enum class FidelityMode : std::uint8_t
{
    Packet,
    Hybrid,
    Fluid,
};

/** Canonical CLI spelling of @p mode ("packet", "hybrid", "fluid"). */
const char *fidelityModeName(FidelityMode mode);

/**
 * Shared command-line surface of the sweep benches: `--short`,
 * `--jobs N` (default: hardware concurrency), `--shards N` and
 * `--fidelity MODE`. Each bench declares the shared flags it reads
 * as a SweepFlag set, and bench-specific valueless flags in an
 * allowlist; those land in `rest` for the caller. Anything else,
 * including a shared flag the bench did not declare, is a hard parse
 * error -- typos fail loudly instead of silently running the wrong
 * experiment.
 */
enum SweepFlag : unsigned
{
    sweepShort = 1u << 0,    ///< `--short`
    sweepJobs = 1u << 1,     ///< `--jobs N`
    sweepShards = 1u << 2,   ///< `--shards N`
    sweepFidelity = 1u << 3, ///< `--fidelity packet|hybrid|fluid`
};

/** The usage-line tail for the shared flags in @p takes (a SweepFlag
 *  set) plus @p extra_flags, e.g. " [--short] [--jobs N] [--det]". */
std::string sweepUsage(unsigned takes,
                       const std::vector<std::string> &extra_flags);

struct SweepCli
{
    unsigned jobs = 0; ///< resolved: >= 1
    /** `--shards N` for the PDES benches; 0 = flag absent (the bench
     *  picks its own sweep). Same reject semantics as `--jobs`. */
    unsigned shards = 0;
    /** `--fidelity {packet,hybrid,fluid}`; packet when absent. Same
     *  reject semantics as `--jobs` (missing/unknown value = error). */
    FidelityMode fidelity = FidelityMode::Packet;
    bool shortMode = false;
    /** Allowlisted caller-handled flags, in argv order. */
    std::vector<std::string> rest;
};

/**
 * Testable parser core. @p args is argv[1..argc); @p takes is the
 * SweepFlag set the caller reads; @p extra_flags is the allowlist of
 * valueless caller-handled flags. On success fills @p out and returns
 * true; on bad input (unknown or undeclared argument, missing /
 * non-numeric / < 1 `--jobs` value) returns false with a one-line
 * diagnostic in @p error.
 */
bool tryParseSweepCli(const std::vector<std::string> &args,
                      unsigned takes,
                      const std::vector<std::string> &extra_flags,
                      SweepCli &out, std::string &error);

/**
 * Parse argv; on any parse error prints the diagnostic plus a usage
 * line (listing only the declared flags) to stderr and exits with
 * status 2.
 */
SweepCli parseSweepCli(int argc, char **argv, unsigned takes,
                       const std::vector<std::string> &extra_flags = {});

/**
 * For benches with a fixed sweep and no flags: any argument prints a
 * diagnostic plus a usage line to stderr and exits with status 2.
 */
void requireNoArguments(int argc, char **argv);

} // namespace netdimm

#endif // NETDIMM_HARNESS_SWEEPRUNNER_HH
