#include "sim/ParallelSim.hh"

#include <algorithm>
#include <exception>
#include <thread>

#include "sim/Logging.hh"

namespace netdimm
{

// -- ShardHost ---------------------------------------------------------------

ShardHost::ShardHost(ParallelSim &sim, unsigned id)
    : _sim(sim), _id(id)
{
}

unsigned
ShardHost::shards() const
{
    return _sim.shards();
}

Tick
ShardHost::quantum() const
{
    return _sim.quantum();
}

std::shared_ptr<void>
ShardHost::channelErased(std::uint64_t key,
                         const std::function<std::shared_ptr<void>()>
                             &make)
{
    return _sim.channelGet(key, make);
}

void
ShardHost::addIngress(std::uint64_t key, ShardIngress *in)
{
    for (const auto &kv : _ingress) {
        if (kv.first == key)
            panic("shard %u: duplicate ingress key %llu", _id,
                  (unsigned long long)key);
    }
    _ingress.emplace_back(key, in);
    _ingressSorted = false;
}

std::size_t
ShardHost::pumpAll(Tick send_before)
{
    if (!_ingressSorted) {
        std::sort(_ingress.begin(), _ingress.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        _ingressSorted = true;
    }
    std::size_t n = 0;
    for (auto &kv : _ingress)
        n += kv.second->pump(_eq, send_before);
    return n;
}

// -- ParallelSim -------------------------------------------------------------

ParallelSim::ParallelSim(unsigned shards, Tick quantum, Mode mode)
    : _shards(shards), _quantum(quantum), _mode(mode)
{
    if (shards == 0)
        panic("ParallelSim needs at least one shard");
    if (quantum == 0)
        panic("ParallelSim quantum must be positive (it is the "
              "cross-shard lookahead)");
    _done = std::make_unique<Progress[]>(shards);
    _stats.resize(shards);
}

ParallelSim::~ParallelSim() = default;

std::shared_ptr<void>
ParallelSim::channelGet(std::uint64_t key,
                        const std::function<std::shared_ptr<void>()>
                            &make)
{
    std::lock_guard<std::mutex> lk(_chanMutex);
    auto &slot = _channels[key];
    if (!slot)
        slot = make();
    return slot;
}

std::uint64_t
ParallelSim::totalExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &s : _stats)
        n += s.executed;
    return n;
}

namespace
{

std::uint64_t
nsBetween(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

} // namespace

void
ParallelSim::stepQuantum(ShardHost &host, std::uint64_t k,
                         Tick quantum, Tick horizon,
                         ShardRunStats &stats, Clock::time_point &mark)
{
    // Everything a neighbor sent while executing quantum k-1 (send
    // ticks in [(k-1)Q, kQ)) is in the channels by now; pump exactly
    // that prefix. Each pumped entry's arrival tick is at least
    // sendTick + lookahead >= kQ, i.e. inside or after this quantum —
    // never in this shard's past.
    Tick q_start = Tick(k) * quantum;
    stats.pumped += host.pumpAll(q_start);
    Clock::time_point pumped = Clock::now();
    stats.pumpNs += nsBetween(mark, pumped);
    Tick q_end = std::min(q_start + quantum, horizon) - 1;
    stats.executed += host._eq.runUntil(q_end);
    ++stats.quanta;
    mark = Clock::now();
    stats.busyNs += nsBetween(pumped, mark);
}

void
ParallelSim::waitTurn(unsigned self, std::uint64_t k)
{
    for (unsigned t = 0; t < _shards; ++t) {
        if (t == self)
            continue;
        std::atomic<std::uint64_t> &d = _done[t].v;
        std::uint64_t v = d.load(std::memory_order_acquire);
        if (v >= k)
            continue;
        // Brief spin (neighbors usually finish within microseconds),
        // then park on the futex-backed atomic wait.
        for (int spin = 0; spin < 1024 && v < k; ++spin)
            v = d.load(std::memory_order_acquire);
        while (v < k) {
            d.wait(v, std::memory_order_acquire);
            v = d.load(std::memory_order_acquire);
        }
    }
}

void
ParallelSim::runMerge(Tick horizon,
                      const std::function<void(ShardHost &)> &build)
{
    std::vector<std::unique_ptr<ShardHost>> hosts;
    hosts.reserve(_shards);
    for (unsigned s = 0; s < _shards; ++s) {
        hosts.push_back(std::make_unique<ShardHost>(*this, s));
        build(*hosts[s]);
    }
    std::uint64_t quanta = (horizon + _quantum - 1) / _quantum;
    // One thread steps every shard back to back, so each step starts
    // where the previous one ended and nothing is ever waited for.
    Clock::time_point mark = Clock::now();
    for (std::uint64_t k = 0; k < quanta; ++k) {
        for (unsigned s = 0; s < _shards; ++s)
            stepQuantum(*hosts[s], k, _quantum, horizon, _stats[s],
                        mark);
    }
    for (unsigned s = 0; s < _shards; ++s) {
        for (auto &fn : hosts[s]->_atEnd)
            fn();
    }
    // Teardown in shard order.
    for (unsigned s = 0; s < _shards; ++s)
        hosts[s].reset();
}

void
ParallelSim::runFree(Tick horizon,
                     const std::function<void(ShardHost &)> &build)
{
    std::uint64_t quanta = (horizon + _quantum - 1) / _quantum;
    std::vector<std::exception_ptr> errors(_shards);
    // Build barrier: no shard may execute (and send) before every
    // shard exists, or an early frame could race channel creation.
    std::atomic<unsigned> built{0};
    std::vector<std::thread> workers;
    workers.reserve(_shards);
    for (unsigned s = 0; s < _shards; ++s) {
        workers.emplace_back([this, s, quanta, horizon, &build,
                              &errors, &built] {
            std::unique_ptr<ShardHost> host;
            try {
                host = std::make_unique<ShardHost>(*this, s);
                build(*host);
                built.fetch_add(1, std::memory_order_release);
                built.notify_all();
                unsigned b = built.load(std::memory_order_acquire);
                while (b < _shards) {
                    built.wait(b, std::memory_order_acquire);
                    b = built.load(std::memory_order_acquire);
                }
                // Three clock reads per quantum: after the wait,
                // after the pump and after the events.
                Clock::time_point mark = Clock::now();
                for (std::uint64_t k = 0; k < quanta; ++k) {
                    waitTurn(s, k);
                    Clock::time_point woke = Clock::now();
                    _stats[s].waitNs += nsBetween(mark, woke);
                    mark = woke;
                    stepQuantum(*host, k, _quantum, horizon,
                                _stats[s], mark);
                    _done[s].v.store(k + 1,
                                     std::memory_order_release);
                    _done[s].v.notify_all();
                }
                for (auto &fn : host->_atEnd)
                    fn();
            } catch (...) {
                errors[s] = std::current_exception();
                // Release every waiter so the run unwinds instead of
                // deadlocking on a promise that will never come.
                built.fetch_add(1, std::memory_order_release);
                built.notify_all();
                _done[s].v.store(quanta, std::memory_order_release);
                _done[s].v.notify_all();
            }
        });
    }
    for (auto &w : workers)
        w.join();
    for (unsigned s = 0; s < _shards; ++s) {
        if (errors[s])
            std::rethrow_exception(errors[s]);
    }
}

void
ParallelSim::run(Tick horizon,
                 const std::function<void(ShardHost &)> &build)
{
    if (_ran)
        panic("ParallelSim::run() is one-shot");
    _ran = true;
    if (horizon == 0)
        return;
    if (_mode == Mode::DeterministicMerge)
        runMerge(horizon, build);
    else
        runFree(horizon, build);
}

} // namespace netdimm
