/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "sim/EventQueue.hh"

using namespace netdimm;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pendingEvents(), 0u);
    EXPECT_EQ(eq.run(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickRunsInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, PriorityOrdersWithinTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); }, EventPriority::Stats);
    eq.schedule(5, [&] { order.push_back(1); }, EventPriority::Default);
    eq.schedule(5, [&] { order.push_back(0); },
                EventPriority::Maintenance);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ScheduleRelIsRelativeToNow)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleRel(50, [&] { seen = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, DescheduleCancelsPendingEvent)
{
    EventQueue eq;
    bool ran = false;
    auto h = eq.schedule(10, [&] { ran = true; });
    eq.deschedule(h);
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, DescheduleExecutedEventIsNoOp)
{
    EventQueue eq;
    int runs = 0;
    auto h = eq.schedule(10, [&] { ++runs; });
    eq.schedule(20, [&] { ++runs; });
    EXPECT_TRUE(eq.step());
    eq.deschedule(h); // already ran
    EXPECT_EQ(eq.pendingEvents(), 1u);
    eq.run();
    EXPECT_EQ(runs, 2);
}

TEST(EventQueue, RunLimitStopsBeforeLaterEvents)
{
    EventQueue eq;
    int runs = 0;
    eq.schedule(10, [&] { ++runs; });
    eq.schedule(20, [&] { ++runs; });
    eq.schedule(30, [&] { ++runs; });
    EXPECT_EQ(eq.run(20), 2u);
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(eq.pendingEvents(), 1u);
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(runs, 3);
}

TEST(EventQueue, EventsScheduledDuringRunExecute)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            eq.scheduleRel(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(eq.curTick(), 9u);
    EXPECT_EQ(eq.executedEvents(), 10u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int runs = 0;
    eq.schedule(1, [&] { ++runs; });
    eq.schedule(2, [&] { ++runs; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, StaleHandleCannotCancelRecycledSlot)
{
    EventQueue eq;
    bool first = false, second = false;
    auto h1 = eq.schedule(10, [&] { first = true; });
    eq.deschedule(h1); // frees the slot
    auto h2 = eq.schedule(20, [&] { second = true; });
    // The free list is LIFO, so the new event reuses the same slot
    // index (the handle's low 24 bits) under a new sequence number;
    // the stale handle must not be able to cancel the slot's new
    // tenant.
    EXPECT_EQ(h1 & 0xffffffu, h2 & 0xffffffu);
    EXPECT_NE(h1, h2);
    eq.deschedule(h1);
    EXPECT_EQ(eq.pendingEvents(), 1u);
    eq.run();
    EXPECT_FALSE(first);
    EXPECT_TRUE(second);
}

TEST(EventQueue, SameTickOrderSurvivesHeavyDeschedule)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<std::uint64_t> doomed;
    // Interleave keepers and victims at one tick, then cancel every
    // victim: the keepers must still run in insertion order even
    // though the heap is full of dead entries between them.
    for (int i = 0; i < 64; ++i) {
        eq.schedule(5, [&order, i] { order.push_back(i); });
        doomed.push_back(
            eq.schedule(5, [&order] { order.push_back(-1); }));
    }
    for (auto h : doomed)
        eq.deschedule(h);
    EXPECT_EQ(eq.pendingEvents(), 64u);
    eq.run();
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, DestructionDrainsPendingCaptures)
{
    // Captures owning resources are destroyed with the queue even if
    // their events never ran (the sanitizer build would flag the
    // shared_ptr as leaked otherwise).
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        EventQueue eq;
        eq.schedule(10, [token] { (void)*token; });
        eq.schedule(20, [token] { (void)*token; });
        token.reset();
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, SteadyStateSchedulingDoesNotGrowSlabs)
{
    EventQueue eq;
    // Warm the slot pool to its high-water occupancy.
    for (int i = 0; i < 1000; ++i)
        eq.scheduleRel(Tick(i + 1), [] {});
    eq.run();
    std::uint64_t slabs = eq.slabAllocations();
    EXPECT_GE(eq.slotCapacity(), 1000u);
    // Steady state: the same occupancy recycles slots, never grows.
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleRel(Tick(i + 1), [] {});
        eq.run();
    }
    EXPECT_EQ(eq.slabAllocations(), slabs);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

TEST(EventQueue, RunUntilStopsExactlyAtHorizon)
{
    // Events at the horizon tick itself run; later ones stay queued,
    // and the clock lands exactly on the horizon either way (the PDES
    // quantum contract: after runUntil(h) the shard's clock IS h).
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(50, [&] { order.push_back(2); });
    eq.schedule(51, [&] { order.push_back(3); });

    EXPECT_EQ(eq.runUntil(50), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.curTick(), 50u);
    EXPECT_EQ(eq.pendingEvents(), 1u);
    EXPECT_EQ(eq.peekNextTick(), 51u);
}

TEST(EventQueue, RunUntilOnEmptyQueueAdvancesClock)
{
    // A drained shard still advances to the quantum edge so its
    // neighbors' lookahead guarantee keeps holding.
    EventQueue eq;
    EXPECT_EQ(eq.runUntil(1000), 0u);
    EXPECT_EQ(eq.curTick(), 1000u);
    EXPECT_EQ(eq.peekNextTick(), maxTick);

    // A horizon at or before the current tick is a no-op, never a
    // rewind.
    EXPECT_EQ(eq.runUntil(1000), 0u);
    EXPECT_EQ(eq.runUntil(5), 0u);
    EXPECT_EQ(eq.curTick(), 1000u);
}

TEST(EventQueue, RunUntilIsReentrant)
{
    // Quantum-by-quantum execution (the PDES driver loop) reaches the
    // same state as one run(): events land in their own quantum and
    // scheduling during a quantum stays legal.
    EventQueue eq;
    std::vector<Tick> fired;
    for (Tick t = 5; t <= 95; t += 10)
        eq.schedule(t, [&fired, t, &eq] {
            fired.push_back(t);
            // Chain into a later quantum from inside this one.
            if (t == 45)
                eq.schedule(72, [&fired] { fired.push_back(72); });
        });

    std::uint64_t total = 0;
    for (Tick h = 10; h <= 100; h += 10)
        total += eq.runUntil(h);
    EXPECT_EQ(total, 11u);
    EXPECT_EQ(eq.curTick(), 100u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(fired,
              (std::vector<Tick>{5, 15, 25, 35, 45, 55, 65, 72, 75,
                                 85, 95}));

    // The queue is still usable with plain run() afterwards.
    bool ran = false;
    eq.schedule(200, [&] { ran = true; });
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, PeekNextTickSkipsDescheduledEvents)
{
    EventQueue eq;
    std::uint64_t h = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.peekNextTick(), 10u);
    eq.deschedule(h);
    // The dead tick-10 entry must not be reported as pending work.
    EXPECT_EQ(eq.peekNextTick(), 20u);
    EXPECT_EQ(eq.runUntil(20), 1u);
}

TEST(EventQueue, HeapStatsCountDeadKeysAndPeakDepth)
{
    EventQueue eq;
    EXPECT_EQ(eq.deadKeysPopped(), 0u);
    EXPECT_EQ(eq.peakHeapDepth(), 0u);

    std::vector<std::uint64_t> h;
    for (Tick t = 1; t <= 6; ++t)
        h.push_back(eq.schedule(t * 10, [] {}));
    EXPECT_EQ(eq.peakHeapDepth(), 6u);
    // Cancelled keys stay in the heap (and in the peak) until they
    // surface; each one is counted once, by whichever path drops it.
    eq.deschedule(h[0]);
    eq.deschedule(h[3]);
    eq.deschedule(h[3]); // no-op: already cancelled
    EXPECT_EQ(eq.peekNextTick(), 20u); // drops the tick-10 key
    EXPECT_EQ(eq.deadKeysPopped(), 1u);
    EXPECT_EQ(eq.run(), 4u);
    EXPECT_EQ(eq.deadKeysPopped(), 2u);
    EXPECT_EQ(eq.executedEvents(), 4u);

    // The peak is a high-water mark: a drained, refilled queue keeps
    // it until the heap grows past it.
    eq.schedule(100, [] {});
    EXPECT_EQ(eq.peakHeapDepth(), 6u);
    for (int i = 0; i < 7; ++i)
        eq.schedule(200, [] {});
    EXPECT_EQ(eq.peakHeapDepth(), 8u);
    // A cancelled key counts once it surfaces, even past a
    // runUntil() horizon; while buried it does not.
    std::uint64_t late = eq.schedule(300, [] {});
    eq.deschedule(late);
    EXPECT_EQ(eq.deadKeysPopped(), 2u);
    EXPECT_EQ(eq.runUntil(250), 8u);
    EXPECT_EQ(eq.deadKeysPopped(), 3u);
}

namespace
{

/**
 * Drives one EventQueue and a std::set reference of the (when, prio,
 * seq) order it promises with the same random calls: schedule,
 * deschedule (live and stale handles), step, runUntil and
 * peekNextTick from outside, and schedule / deschedule from inside
 * callbacks. Every dispatch must be the reference's front.
 */
class QueueVsReference
{
  public:
    explicit QueueVsReference(std::uint64_t seed) : _rng(seed) {}

    void
    drive(int ops)
    {
        for (int i = 0; i < ops && !_diverged; ++i) {
            std::uint64_t op = _rng() % 100;
            if (op < 40) {
                scheduleOne(randomDelay(), randomPrio());
            } else if (op < 55) {
                cancelRandom();
            } else if (op < 70) {
                bool pending = !_ref.empty();
                EXPECT_EQ(_eq.step(), pending);
            } else if (op < 85) {
                Tick horizon = _eq.curTick() + randomDelay();
                _eq.runUntil(horizon);
                EXPECT_EQ(_eq.curTick(), horizon);
                if (!_ref.empty()) {
                    EXPECT_GT(std::get<0>(*_ref.begin()), horizon);
                }
            } else {
                EXPECT_EQ(_eq.peekNextTick(),
                          _ref.empty() ? maxTick
                                       : std::get<0>(*_ref.begin()));
            }
            EXPECT_EQ(_eq.pendingEvents(), _ref.size());
        }
        _eq.run();
        EXPECT_TRUE(_ref.empty());
        EXPECT_EQ(_eq.executedEvents(), _dispatched);
    }

    int nearCancels = 0;
    int farCancels = 0;
    int staleCancels = 0;
    int maintenanceFromCallback = 0;

  private:
    using Key = std::tuple<Tick, int, std::uint64_t>;

    EventQueue _eq;
    std::set<Key> _ref;
    /** Per schedule, indexed by seq - 1. */
    std::vector<Key> _keys;
    std::vector<std::uint64_t> _handles;
    std::vector<bool> _near;
    std::mt19937_64 _rng;
    std::uint64_t _dispatched = 0;
    bool _diverged = false;

    Tick
    randomDelay()
    {
        constexpr Tick w = EventQueue::nearWindow;
        switch (_rng() % 6) {
          case 0: return 0;
          case 1: return w - 1;
          case 2: return w;
          case 3: return w + 1;
          case 4: return 1 + _rng() % (w - 1);
          default: return w + 1 + _rng() % (20 * w);
        }
    }

    EventPriority
    randomPrio()
    {
        return static_cast<EventPriority>(_rng() % 4);
    }

    void
    scheduleOne(Tick delay, EventPriority prio)
    {
        std::uint64_t seq = _keys.size() + 1;
        Tick when = _eq.curTick() + delay;
        std::uint64_t h =
            _eq.schedule(when, [this, seq] { fire(seq); }, prio);
        EXPECT_NE(h, EventQueue::invalidHandle);
        Key k{when, static_cast<int>(prio), seq};
        _keys.push_back(k);
        _handles.push_back(h);
        _near.push_back(delay < EventQueue::nearWindow);
        _ref.insert(k);
    }

    void
    cancelRandom()
    {
        if (_rng() % 16 == 0) {
            _eq.deschedule(EventQueue::invalidHandle);
            return;
        }
        if (_keys.empty())
            return;
        // Half the picks among the last few schedules, which are
        // mostly still pending; the rest mostly hit stale handles.
        std::size_t i = _rng() % _keys.size();
        if (_rng() % 2 == 0 && _keys.size() > 8)
            i = _keys.size() - 1 - _rng() % 8;
        if (_ref.erase(_keys[i]) == 0)
            ++staleCancels;
        else if (_near[i])
            ++nearCancels;
        else
            ++farCancels;
        _eq.deschedule(_handles[i]);
    }

    void
    fire(std::uint64_t seq)
    {
        if (_diverged)
            return; // reported once; later dispatches prove nothing
        _diverged = _ref.empty() || std::get<2>(*_ref.begin()) != seq;
        ASSERT_FALSE(_diverged) << "dispatch order diverged at seq " << seq;
        const Key &front = *_ref.begin();
        EXPECT_EQ(_eq.curTick(), std::get<0>(front));
        bool is_default = std::get<1>(front) ==
                          static_cast<int>(EventPriority::Default);
        _ref.erase(_ref.begin());
        ++_dispatched;
        // A zero-delay Maintenance event from a Default callback sorts
        // before the tick's remaining Default events.
        if (is_default && _rng() % 4 == 0) {
            scheduleOne(0, EventPriority::Maintenance);
            ++maintenanceFromCallback;
        }
        if (_rng() % 2 == 0)
            scheduleOne(randomDelay(), randomPrio());
        if (_rng() % 8 == 0)
            cancelRandom();
    }
};

} // namespace

TEST(EventQueue, DispatchOrderMatchesReferenceSet)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        QueueVsReference d(seed);
        d.drive(20000);
        EXPECT_GT(d.nearCancels, 0);
        EXPECT_GT(d.farCancels, 0);
        EXPECT_GT(d.staleCancels, 0);
        EXPECT_GT(d.maintenanceFromCallback, 0);
    }
}
