/**
 * @file
 * Discrete-event simulation core.
 *
 * A single EventQueue orders callbacks by (tick, priority, insertion
 * sequence). Components schedule lambdas; the queue advances simulated
 * time to the next event's timestamp and invokes it. Determinism is
 * guaranteed by the total ordering: two events at the same tick and
 * priority run in insertion order.
 *
 * Hot-path layout (zero steady-state allocation):
 *
 *  - Callbacks are InlineFunction, not std::function: captures live
 *    in fixed inline storage, a too-large capture is a compile error,
 *    so scheduling never touches the heap.
 *  - Callbacks are stored in slab-allocated slots recycled through a
 *    free list. The heaps order 16-byte POD keys {when, key} only,
 *    with key = prio rank (2 bits) | seq (38 bits) | slot (24 bits),
 *    so sift operations never move closures, four sibling keys take
 *    64 bytes, and dispatch invokes the callback IN its slot
 *    (disarmed first, freed after it returns), never copying the
 *    capture anywhere.
 *  - Two 4-ary heaps: an event due less than nearWindow ahead goes to
 *    the near heap, any other to the far heap, so the short-delay
 *    churn that dominates dispatch sifts through a shallow heap
 *    instead of a backlog of far-future keys. Every consumer takes
 *    the smaller of the two tops. Keys form one strict total order,
 *    so any split of them between the heaps pops in the same order:
 *    the window changes speed, never the simulation.
 *  - The handle is the key itself. A slot stores the key of its
 *    pending event and 0 once disarmed; a heap entry is live only
 *    while its slot still holds its key. deschedule() is an O(1) key
 *    compare + slot free (the entry is dropped lazily when it
 *    surfaces). seq starts at 1 and never repeats, so no handle is
 *    invalidHandle and a stale handle can never cancel its slot's
 *    next tenant.
 *  - Limits: 2^24 slots (pending events) and 2^38 schedules per
 *    queue, about 7 hours of one queue at 10M events/s; both panic
 *    when exceeded.
 */

#ifndef NETDIMM_SIM_EVENTQUEUE_HH
#define NETDIMM_SIM_EVENTQUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/InlineFunction.hh"
#include "sim/Logging.hh"
#include "sim/Ticks.hh"

namespace netdimm
{

/** Relative ordering of events scheduled for the same tick. */
enum class EventPriority : int
{
    /** DRAM / link state maintenance runs before consumers. */
    Maintenance = 0,
    /** Fluid-model solver rounds (src/flow) integrate link backlogs
     *  up to the tick before packet-level consumers sample them. */
    Fluid = 1,
    /** Default priority for most component events. */
    Default = 2,
    /** Statistic sampling runs after the tick's functional events. */
    Stats = 3,
};

/**
 * Inline capture budget for event callbacks. Sized for the largest
 * capture in src/ (the NetDIMM cloneBuffer trampoline: a moved
 * CloneDone completion plus the clone extents, 128 bytes); the
 * static_assert inside InlineFunction keeps it honest.
 */
constexpr std::size_t eventCaptureBytes = 128;

/**
 * A time-ordered queue of callbacks driving the simulation.
 *
 * The queue is not thread safe; a simulation is a single-threaded
 * deterministic run.
 */
class EventQueue
{
  public:
    using Callback = InlineFunction<void(), eventCaptureBytes>;

    /** Never returned by schedule(); deschedule(invalid) is a no-op. */
    static constexpr std::uint64_t invalidHandle = 0;

    /** Events due less than this far ahead go to the near heap. */
    static constexpr Tick nearWindow = tickPerUs;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** @return the current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p fn to run at absolute time @p when. The callable
     * is constructed directly in its pooled slot (no intermediate
     * Callback move); capture-size limits are enforced by
     * Callback's static_assert at instantiation.
     *
     * @param when absolute tick, must be >= curTick().
     * @param fn callback to invoke.
     * @param prio same-tick ordering class.
     * @return a handle usable with deschedule().
     */
    template <typename F>
    std::uint64_t
    schedule(Tick when, F &&fn,
             EventPriority prio = EventPriority::Default)
    {
        if (when < _curTick)
            panic("scheduling event in the past (%llu < %llu)",
                  (unsigned long long)when,
                  (unsigned long long)_curTick);
        if (_nextSeq > seqMask)
            panic("event sequence space exhausted (%llu schedules)",
                  (unsigned long long)seqMask);
        std::uint32_t idx = allocSlot();
        Slot &s = slotRef(idx);
        if constexpr (std::is_same_v<std::decay_t<F>, Callback>)
            s.cb = std::forward<F>(fn);
        else
            s.cb.emplace(std::forward<F>(fn));
        std::uint64_t rank = std::uint64_t(static_cast<int>(prio));
        std::uint64_t key = (rank << (seqBits + slotBits)) |
                            (_nextSeq++ << slotBits) | idx;
        s.key = key;
        (when - _curTick < nearWindow ? _near : _far).push({when, key});
        if (_near.size() + _far.size() > _peakHeap)
            _peakHeap = _near.size() + _far.size();
        ++_livePending;
        return key;
    }

    /** Schedule @p fn to run @p delta ticks from now. */
    template <typename F>
    std::uint64_t
    scheduleRel(Tick delta, F &&fn,
                EventPriority prio = EventPriority::Default)
    {
        return schedule(_curTick + delta, std::forward<F>(fn), prio);
    }

    /**
     * Cancel a previously scheduled event: O(1), frees the slot and
     * destroys the capture immediately. Cancelling an event that
     * already ran (or was already cancelled) is a harmless no-op —
     * the slot no longer holds the handle's key, so the stale handle
     * cannot touch whatever event occupies the slot now.
     */
    void deschedule(std::uint64_t handle);

    /** @return true when no events remain pending. */
    bool empty() const { return _livePending == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t pendingEvents() const { return _livePending; }

    /**
     * Run events until the queue drains or @p limit is reached.
     *
     * @param limit stop once the next event is strictly after this
     *              tick; the clock is left at the last executed
     *              event's time.
     * @return number of events executed.
     */
    std::uint64_t run(Tick limit = maxTick);

    /**
     * Bounded execution for co-simulation / sharded drivers: run
     * every event with when <= @p horizon, then advance the clock to
     * exactly @p horizon even if the queue went idle earlier. Unlike
     * run(), draining before the horizon is a normal outcome (the
     * next work may arrive from outside this queue), so no health
     * check fires. Re-entrant: successive calls with growing horizons
     * resume where the previous one stopped; a horizon before
     * curTick() is a no-op, and a horizon equal to curTick() runs
     * only events scheduled at exactly the current tick.
     *
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick horizon);

    /**
     * Tick of the earliest pending event, or maxTick when none is
     * pending. Prunes cancelled entries, so it is not const.
     */
    Tick peekNextTick();

    /**
     * Run exactly one event if any is pending.
     * @return true if an event was executed.
     */
    bool step();

    /** Total events executed since construction. */
    std::uint64_t executedEvents() const { return _executed; }

    // -- heap statistics -------------------------------------------------

    /**
     * Cancelled or stale heap keys dropped since construction: the
     * pops that ran no event. deschedule() leaves its key behind, so
     * this is the heap work wasted on cancellations.
     */
    std::uint64_t deadKeysPopped() const { return _deadPopped; }

    /**
     * Largest number of keys held (near plus far heap, live plus
     * dead) since construction.
     */
    std::size_t peakHeapDepth() const { return _peakHeap; }

    // -- per-simulation id allocation -------------------------------------
    //
    // Mutable id state lives on the queue, not in a process global, so
    // a simulation's ids depend only on its own history: the same cell
    // run twice in one process (or concurrently on two threads) mints
    // the same ids, which is what keeps sweep output independent of
    // cell execution order.

    /** Mint the next packet id for this simulation (first id is 1). */
    std::uint64_t allocPacketId() { return _nextPacketId++; }

    /** Packet ids minted so far. */
    std::uint64_t packetIdsAllocated() const { return _nextPacketId - 1; }

    // -- pool statistics -------------------------------------------------

    /** Event slots ever materialized (high-water, slabs never shrink). */
    std::size_t
    slotCapacity() const
    {
        return _slabs.size() * slabSize;
    }

    /**
     * Slab allocations since construction. Constant once the queue
     * reaches its high-water occupancy: the no-steady-state-allocation
     * tests assert this stops moving.
     */
    std::uint64_t slabAllocations() const { return _slabAllocs; }

    // -- simulation health ----------------------------------------------
    //
    // Components register a liveness probe reporting how much work
    // they still hold (queued requests, in-flight skbs). When run()
    // drains the queue while some probe reports outstanding work, the
    // simulation has deadlocked: nothing can ever finish that work
    // because no event remains to drive it. A max-tick watchdog
    // independently bounds runaway simulations (e.g. a retry loop
    // rescheduling itself forever).

    /**
     * Register a liveness probe. @p outstanding reports work items
     * the component holds that still need events to complete.
     * @return a probe id for unregisterHealthProbe().
     */
    std::size_t registerHealthProbe(std::string name,
                                    std::function<std::uint64_t()>
                                        outstanding);

    /** Deactivate a probe (owner is being destroyed). */
    void unregisterHealthProbe(std::size_t id);

    /**
     * Evaluate all probes now. Counts (and warns about) a deadlock
     * when any active probe reports outstanding work; run() calls
     * this automatically whenever the queue drains.
     * @return true when no outstanding work is reported.
     */
    bool checkHealth();

    /** Deadlocks detected by checkHealth() so far. */
    std::uint64_t deadlocksDetected() const { return _deadlocks; }

    /**
     * Arm the max-tick watchdog: run() refuses to advance past
     * @p limit and flags the overrun instead of spinning forever.
     * 0 disarms.
     */
    void
    setTickLimit(Tick limit)
    {
        _tickLimit = limit;
        _tickLimitHit = false;
    }

    /** True when run() stopped at the max-tick watchdog. */
    bool tickLimitExceeded() const { return _tickLimitHit; }

  private:
    static constexpr unsigned slotBits = 24;
    static constexpr unsigned seqBits = 38;
    static constexpr std::uint64_t slotMask =
        (std::uint64_t(1) << slotBits) - 1;
    static constexpr std::uint64_t seqMask =
        (std::uint64_t(1) << seqBits) - 1;
    static_assert(static_cast<int>(EventPriority::Stats) < 4,
                  "the priority rank has 2 bits");

    /**
     * POD heap entry. The heaps never hold the callback, and a dead
     * entry (cancelled, or its slot re-let) is dropped when it
     * reaches the front. key = prio | seq | slot, most significant
     * first, so the (when, prio, seq) total order costs two compares
     * and the slot index rides along for free.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t key;

        bool
        operator<(const Entry &o) const
        {
            return when < o.when || (when == o.when && key < o.key);
        }
    };

    /**
     * 4-ary implicit min-heap of entries. Half the levels of a binary
     * heap, and four 16-byte children take one cache line's worth of
     * bytes, which makes the pop-heavy dispatch loop faster than
     * std::priority_queue.
     */
    class KeyHeap
    {
      public:
        bool empty() const { return _v.empty(); }
        std::size_t size() const { return _v.size(); }
        const Entry &top() const { return _v.front(); }
        void push(Entry e);
        void pop();

      private:
        std::vector<Entry> _v;
    };

    /** One pooled event: the callback plus its recycling metadata. */
    struct Slot
    {
        Callback cb;
        /** Key of the pending event; 0 (no entry's key) when idle. */
        std::uint64_t key = 0;
        std::uint32_t nextFree = 0;
    };

    struct HealthProbe
    {
        std::string name;
        std::function<std::uint64_t()> outstanding;
        bool active = false;
    };

    static constexpr std::uint32_t noSlot = 0xffffffffu;
    static constexpr std::uint32_t slabSize = 256;

    KeyHeap _near;
    KeyHeap _far;
    /** Slab storage: stable addresses, grows by whole slabs. */
    std::vector<std::unique_ptr<Slot[]>> _slabs;
    std::uint32_t _freeHead = noSlot;
    std::size_t _livePending = 0;
    std::uint64_t _slabAllocs = 0;

    Tick _curTick = 0;
    std::uint64_t _nextSeq = 1;
    std::uint64_t _executed = 0;
    std::uint64_t _nextPacketId = 1;
    std::uint64_t _deadPopped = 0;
    std::size_t _peakHeap = 0;

    std::vector<HealthProbe> _probes;
    std::uint64_t _deadlocks = 0;
    Tick _tickLimit = 0;
    bool _tickLimitHit = false;

    Slot &
    slotRef(std::uint32_t idx)
    {
        return _slabs[idx / slabSize][idx % slabSize];
    }

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t idx);
    void growSlab();

    /**
     * Drop dead entries off the front of the two heaps, in the order
     * a single heap would pop them.
     * @return the heap whose top is the earliest live entry, or
     *         nullptr when no event is pending.
     */
    KeyHeap *skipDead();

    /** Shared core of run()/runUntil(). */
    std::uint64_t runLoop(Tick limit, bool health_on_drain);

    /** Pop and run the (live) top entry of @p h. */
    void dispatchTop(KeyHeap &h);
};

} // namespace netdimm

#endif // NETDIMM_SIM_EVENTQUEUE_HH
