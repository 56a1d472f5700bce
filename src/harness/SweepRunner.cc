#include "harness/SweepRunner.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "sim/Logging.hh"

namespace netdimm
{

SweepRunner::SweepRunner(unsigned jobs)
    : _jobs(jobs != 0 ? jobs : std::thread::hardware_concurrency())
{
    if (_jobs == 0)
        _jobs = 1; // hardware_concurrency() may report 0
}

SweepRunner::~SweepRunner()
{
    {
        std::lock_guard<std::mutex> g(_m);
        _shutdown = true;
    }
    _cv.notify_all();
    for (std::thread &t : _workers)
        t.join();
}

void
SweepRunner::workerMain()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lk(_m);
            _cv.wait(lk,
                     [this] { return _shutdown || !_queue.empty(); });
            if (_queue.empty())
                return; // shutdown with nothing left to do
            job = std::move(_queue.front());
            _queue.pop_front();
        }
        job();
    }
}

void
SweepRunner::runErased(std::size_t n,
                       const std::function<void(std::size_t)> &exec,
                       const std::function<const std::string &(
                           std::size_t)> &label)
{
    if (n == 0)
        return;

    // Completion + failure accounting, shared by the n jobs.
    std::mutex done_m;
    std::condition_variable done_cv;
    std::size_t done = 0;
    std::size_t firstFailed = n; // n = no failure
    std::string failLabel;
    std::string failWhat;

    {
        std::lock_guard<std::mutex> g(_m);
        // A worker per queued cell, up to the limit: more would only
        // sleep on the empty queue. They start before the cells are
        // queued, so a failed thread start leaves no queued cell
        // pointing into this frame.
        _cellsQueued += n;
        while (_workers.size() < _jobs && _workers.size() < _cellsQueued)
            _workers.emplace_back([this] { workerMain(); });
        for (std::size_t i = 0; i < n; ++i) {
            _queue.emplace_back([&, i] {
                std::string what;
                bool failed = false;
                try {
                    exec(i);
                } catch (const std::exception &e) {
                    failed = true;
                    what = e.what();
                } catch (...) {
                    failed = true;
                    what = "unknown exception";
                }
                ++_cellsExecuted;
                std::lock_guard<std::mutex> dg(done_m);
                // Keep the FIRST failing cell in grid order so the
                // report does not depend on worker interleaving.
                if (failed && i < firstFailed) {
                    firstFailed = i;
                    failLabel = label(i);
                    failWhat = what;
                }
                if (++done == n)
                    done_cv.notify_all();
            });
        }
    }
    _cv.notify_all();

    std::unique_lock<std::mutex> lk(done_m);
    done_cv.wait(lk, [&] { return done == n; });

    if (firstFailed != n)
        throw SweepCellError(firstFailed, failLabel, failWhat);
}

const char *
fidelityModeName(FidelityMode mode)
{
    switch (mode) {
      case FidelityMode::Packet:
        return "packet";
      case FidelityMode::Hybrid:
        return "hybrid";
      case FidelityMode::Fluid:
        return "fluid";
    }
    return "?";
}

namespace
{

/** Parse the value after the flag at args[@p a] as a positive
 *  integer into @p out, advancing @p a past it. */
bool
parsePositive(const std::vector<std::string> &args, std::size_t &a,
              unsigned &out, std::string &error)
{
    const std::string &flag = args[a];
    if (a + 1 >= args.size()) {
        error = flag + " requires a value";
        return false;
    }
    const std::string &v = args[++a];
    char *end = nullptr;
    errno = 0;
    long n = std::strtol(v.c_str(), &end, 10);
    // A count that does not fit in unsigned is rejected, never
    // truncated: "4294967297" must not quietly mean 1.
    if (end == v.c_str() || *end != '\0' || errno == ERANGE ||
        n < 1 ||
        (unsigned long)n > std::numeric_limits<unsigned>::max()) {
        error = flag + " must be a positive integer (got '" + v + "')";
        return false;
    }
    out = unsigned(n);
    return true;
}

} // namespace

std::string
sweepUsage(unsigned takes, const std::vector<std::string> &extra_flags)
{
    std::string usage;
    if (takes & sweepShort)
        usage += " [--short]";
    if (takes & sweepJobs)
        usage += " [--jobs N]";
    if (takes & sweepShards)
        usage += " [--shards N]";
    if (takes & sweepFidelity)
        usage += " [--fidelity packet|hybrid|fluid]";
    for (const std::string &f : extra_flags)
        usage += " [" + f + "]";
    return usage;
}

bool
tryParseSweepCli(const std::vector<std::string> &args, unsigned takes,
                 const std::vector<std::string> &extra_flags,
                 SweepCli &out, std::string &error)
{
    SweepCli cli;
    for (std::size_t a = 0; a < args.size(); ++a) {
        const std::string &arg = args[a];
        if (arg == "--short" && (takes & sweepShort)) {
            cli.shortMode = true;
            continue;
        }
        if ((arg == "--jobs" && (takes & sweepJobs)) ||
            (arg == "--shards" && (takes & sweepShards))) {
            if (!parsePositive(args, a,
                               arg == "--jobs" ? cli.jobs : cli.shards,
                               error))
                return false;
            continue;
        }
        if (arg == "--fidelity" && (takes & sweepFidelity)) {
            if (a + 1 >= args.size()) {
                error = "--fidelity requires a value";
                return false;
            }
            const std::string &v = args[++a];
            if (v == "packet") {
                cli.fidelity = FidelityMode::Packet;
            } else if (v == "hybrid") {
                cli.fidelity = FidelityMode::Hybrid;
            } else if (v == "fluid") {
                cli.fidelity = FidelityMode::Fluid;
            } else {
                error = "--fidelity must be one of packet, hybrid, "
                        "fluid (got '" + v + "')";
                return false;
            }
            continue;
        }
        bool allowed = false;
        for (const std::string &f : extra_flags)
            if (arg == f) {
                allowed = true;
                break;
            }
        if (!allowed) {
            error = "unknown argument '" + arg + "'";
            return false;
        }
        cli.rest.push_back(arg);
    }
    if (cli.jobs == 0) {
        cli.jobs = std::thread::hardware_concurrency();
        if (cli.jobs == 0)
            cli.jobs = 1;
    }
    out = cli;
    return true;
}

SweepCli
parseSweepCli(int argc, char **argv, unsigned takes,
              const std::vector<std::string> &extra_flags)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    SweepCli cli;
    std::string error;
    if (!tryParseSweepCli(args, takes, extra_flags, cli, error)) {
        const char *bench = argc > 0 ? argv[0] : "bench";
        std::fprintf(stderr, "%s: %s\nusage: %s%s\n", bench,
                     error.c_str(), bench,
                     sweepUsage(takes, extra_flags).c_str());
        std::exit(2);
    }
    return cli;
}

void
requireNoArguments(int argc, char **argv)
{
    if (argc <= 1)
        return;
    std::fprintf(stderr, "%s: takes no arguments (got '%s')\nusage: %s\n",
                 argv[0], argv[1], argv[0]);
    std::exit(2);
}

} // namespace netdimm
