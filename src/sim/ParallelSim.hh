/**
 * @file
 * Pod-sharded conservative parallel discrete-event simulation.
 *
 * One large simulation is partitioned into shards, each owning its
 * own EventQueue and components. Shards exchange traffic exclusively
 * through SPSC channels (sim/ShardChannel.hh) carrying time-stamped
 * entries by value, and synchronize conservatively on a fixed quantum equal to
 * the cross-shard lookahead L: anything a shard sends while executing
 * quantum k (ticks [kQ, (k+1)Q)) arrives at or after (k+1)Q, so a
 * shard may execute quantum k as soon as every other shard has
 * finished quantum k-1. Publishing "finished quantum k" is this
 * design's null message: it promises the neighbor a channel-complete
 * prefix without carrying payload (Chandy-Misra-Bryant lookahead with
 * the promise folded into one counter per shard).
 *
 * Determinism contract (DESIGN.md §16): at the start of its quantum
 * k, a shard pumps each inbound channel in a fixed key order, popping
 * exactly the entries stamped with a send tick before kQ. Send ticks
 * are monotone per channel and the producer finished quantum k-1, so
 * that prefix is complete and identical no matter how threads
 * interleave — both execution modes, at any shard count, replay the
 * same per-shard event sequence:
 *
 *  - DeterministicMerge: every shard driven by the CALLING thread,
 *    round-robin per quantum — the single-threaded reference order
 *    (events merge in (tick, prio, seq, shard) order). The testing
 *    mode: byte-compare its output against anything.
 *  - FreeRun: one worker thread per shard, paced only by the
 *    neighbor-progress promises (max skew: one quantum). The
 *    performance mode; must produce byte-identical results.
 */

#ifndef NETDIMM_SIM_PARALLELSIM_HH
#define NETDIMM_SIM_PARALLELSIM_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/EventQueue.hh"
#include "sim/Ticks.hh"

namespace netdimm
{

/**
 * Consumer half of a cross-shard channel, type-erased so the driver
 * can pump without knowing the payload type (the net layer's
 * PacketChannel implements it).
 */
class ShardIngress
{
  public:
    virtual ~ShardIngress() = default;

    /**
     * Pop every entry whose send tick is before @p send_before and
     * schedule its local effect on @p eq; later entries stay queued.
     * Consumer-thread-only.
     * @return entries drained.
     */
    virtual std::size_t pump(EventQueue &eq, Tick send_before) = 0;
};

class ParallelSim;

/**
 * One shard's context, handed to the builder callback (on the
 * shard's worker thread in FreeRun mode). The host owns the shard's
 * EventQueue and whatever the builder parks with hold(); both are
 * destroyed on the thread that built them.
 */
class ShardHost
{
  public:
    ShardHost(ParallelSim &sim, unsigned id);

    EventQueue &eventq() { return _eq; }
    unsigned shardId() const { return _id; }
    unsigned shards() const;
    /** The sync quantum == cross-shard lookahead, in ticks. */
    Tick quantum() const;

    /**
     * The process-wide channel object for @p key, created by
     * whichever side asks first. Key collisions across distinct
     * links are the caller's bug; both ends of one link must agree
     * on the key.
     */
    template <typename C>
    std::shared_ptr<C>
    channel(std::uint64_t key)
    {
        return std::static_pointer_cast<C>(channelErased(
            key, [] { return std::shared_ptr<void>(
                          std::make_shared<C>()); }));
    }

    /**
     * Register the consumer half of an inbound channel. Pumped once
     * per quantum in ascending @p key order — the fixed merge order
     * that makes same-tick cross-shard deliveries deterministic.
     */
    void addIngress(std::uint64_t key, ShardIngress *in);

    /** Keep @p obj alive until teardown (destroyed shard-side). */
    void hold(std::shared_ptr<void> obj) { _held.push_back(std::move(obj)); }

    /** Run after the horizon, before teardown, on the shard's
     *  thread — the place to extract results. */
    void atEnd(std::function<void()> fn) { _atEnd.push_back(std::move(fn)); }

  private:
    friend class ParallelSim;

    std::shared_ptr<void>
    channelErased(std::uint64_t key,
                  const std::function<std::shared_ptr<void>()> &make);

    /** Pump every ingress in key order. @return entries drained. */
    std::size_t pumpAll(Tick send_before);

    ParallelSim &_sim;
    unsigned _id;
    EventQueue _eq;
    bool _ingressSorted = false;
    std::vector<std::pair<std::uint64_t, ShardIngress *>> _ingress;
    std::vector<std::function<void()>> _atEnd;
    /** Destroyed before _eq would be... members die in reverse
     *  declaration order, so _held (which may contain objects
     *  referencing _eq) goes first. */
    std::vector<std::shared_ptr<void>> _held;
};

/** Per-shard outcome of a ParallelSim::run(). */
struct ShardRunStats
{
    std::uint64_t executed = 0; ///< events dispatched by the shard
    std::uint64_t quanta = 0;   ///< sync quanta stepped
    std::uint64_t pumped = 0;   ///< cross-shard entries drained
    /** Host wall time of the shard's quantum loop, split three ways:
     *  executing events, draining ingress channels, and (FreeRun
     *  only) waiting for the neighbours' promises, which includes
     *  publishing its own. */
    std::uint64_t busyNs = 0;
    std::uint64_t pumpNs = 0;
    std::uint64_t waitNs = 0;
};

class ParallelSim
{
  public:
    enum class Mode
    {
        /** Single caller thread, shards stepped round-robin per
         *  quantum: the reference merge order. */
        DeterministicMerge,
        /** One thread per shard, promise-paced: the fast mode. */
        FreeRun,
    };

    /**
     * @param shards shard count, >= 1.
     * @param quantum sync quantum in ticks; must not exceed the
     *        minimum cross-shard lookahead or conservative order
     *        breaks. > 0.
     */
    ParallelSim(unsigned shards, Tick quantum, Mode mode);
    ~ParallelSim();

    ParallelSim(const ParallelSim &) = delete;
    ParallelSim &operator=(const ParallelSim &) = delete;

    unsigned shards() const { return _shards; }
    Tick quantum() const { return _quantum; }
    Mode mode() const { return _mode; }

    /**
     * Build every shard via @p build, execute every event before
     * @p horizon, then run the atEnd hooks and tear the shards down
     * (each on its building thread). One-shot: a ParallelSim drives
     * exactly one run.
     */
    void run(Tick horizon,
             const std::function<void(ShardHost &)> &build);

    /** Per-shard outcomes, valid after run(). */
    const std::vector<ShardRunStats> &shardStats() const
    {
        return _stats;
    }

    /** Events dispatched across all shards. */
    std::uint64_t totalExecuted() const;

  private:
    friend class ShardHost;

    /** False-sharing-padded progress counter: done.v == k+1 once the
     *  shard finished quantum k. The published promise doubling as
     *  the null message. */
    struct alignas(64) Progress
    {
        std::atomic<std::uint64_t> v{0};
    };

    std::shared_ptr<void>
    channelGet(std::uint64_t key,
               const std::function<std::shared_ptr<void>()> &make);

    void runMerge(Tick horizon,
                  const std::function<void(ShardHost &)> &build);
    void runFree(Tick horizon,
                 const std::function<void(ShardHost &)> &build);

    using Clock = std::chrono::steady_clock;

    /**
     * Quantum loop shared by both modes for ONE shard. @p mark is
     * the host time the step starts at; on return it holds the time
     * the step ended (two clock reads per step).
     */
    static void stepQuantum(ShardHost &host, std::uint64_t k,
                            Tick quantum, Tick horizon,
                            ShardRunStats &stats, Clock::time_point &mark);

    /** Block until every other shard has finished quantum k-1. */
    void waitTurn(unsigned self, std::uint64_t k);

    unsigned _shards;
    Tick _quantum;
    Mode _mode;

    std::mutex _chanMutex;
    std::map<std::uint64_t, std::shared_ptr<void>> _channels;

    std::unique_ptr<Progress[]> _done;
    std::vector<ShardRunStats> _stats;
    bool _ran = false;
};

} // namespace netdimm

#endif // NETDIMM_SIM_PARALLELSIM_HH
