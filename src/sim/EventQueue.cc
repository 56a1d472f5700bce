#include "sim/EventQueue.hh"

#include <algorithm>

namespace netdimm
{

void
EventQueue::growSlab()
{
    std::uint64_t base = std::uint64_t(_slabs.size()) * slabSize;
    if (base + slabSize >= noSlot)
        panic("event slot pool exhausted (%llu slots)",
              (unsigned long long)base);
    _slabs.push_back(std::make_unique<Slot[]>(slabSize));
    ++_slabAllocs;
    // Thread the new slots onto the free list lowest-index-first so
    // slot numbering stays compact and reproducible.
    for (std::uint32_t i = slabSize; i-- > 0;) {
        Slot &s = _slabs.back()[i];
        s.nextFree = _freeHead;
        _freeHead = std::uint32_t(base) + i;
    }
}

std::uint32_t
EventQueue::allocSlot()
{
    if (_freeHead == noSlot)
        growSlab();
    std::uint32_t idx = _freeHead;
    _freeHead = slotRef(idx).nextFree;
    return idx;
}

void
EventQueue::freeSlot(std::uint32_t idx)
{
    Slot &s = slotRef(idx);
    s.armed = false;
    if (++s.gen == 0)
        s.gen = 1; // generation 0 is reserved for invalidHandle
    s.nextFree = _freeHead;
    _freeHead = idx;
}

void
EventQueue::heapPush(const Entry &e)
{
    std::size_t i = _heap.size();
    _heap.push_back(e);
    if (_heap.size() > _peakHeap)
        _peakHeap = _heap.size();
    while (i > 0) {
        std::size_t p = (i - 1) / 4;
        if (!(_heap[p] > e))
            break;
        _heap[i] = _heap[p];
        i = p;
    }
    _heap[i] = e;
}

void
EventQueue::heapPop()
{
    Entry moved = _heap.back();
    _heap.pop_back();
    std::size_t n = _heap.size();
    if (n == 0)
        return;
    Entry *h = _heap.data();
    std::size_t i = 0;
    std::size_t c;
    // Interior nodes: all four children exist, compare unrolled.
    while ((c = i * 4 + 1) + 3 < n) {
        std::size_t best = c;
        if (h[best] > h[c + 1])
            best = c + 1;
        if (h[best] > h[c + 2])
            best = c + 2;
        if (h[best] > h[c + 3])
            best = c + 3;
        if (!(moved > h[best])) {
            h[i] = moved;
            return;
        }
        h[i] = h[best];
        i = best;
    }
    // Frontier node with 1-3 children.
    if (c < n) {
        std::size_t best = c;
        for (std::size_t k = c + 1; k < n; ++k) {
            if (h[best] > h[k])
                best = k;
        }
        if (moved > h[best]) {
            h[i] = h[best];
            i = best;
        }
    }
    h[i] = moved;
}

void
EventQueue::deschedule(std::uint64_t handle)
{
    std::uint32_t idx = static_cast<std::uint32_t>(handle);
    std::uint32_t gen = static_cast<std::uint32_t>(handle >> 32);
    if (std::size_t(idx) >= _slabs.size() * slabSize)
        return;
    Slot &s = slotRef(idx);
    if (!s.armed || s.gen != gen)
        return; // already ran, already cancelled, or slot recycled
    s.cb.reset();
    freeSlot(idx);
    --_livePending;
    // The heap entry stays behind; its generation no longer matches,
    // so skipDead() drops it when it surfaces.
}

void
EventQueue::skipDead()
{
    while (!_heap.empty()) {
        const Entry &top = _heap.front();
        const Slot &s = slotRef(top.slot);
        if (s.armed && s.gen == top.gen)
            return;
        heapPop();
        ++_deadPopped;
    }
}

void
EventQueue::dispatchTop()
{
    Entry e = _heap.front(); // POD key, no closure copied
    heapPop();
    Slot &s = slotRef(e.slot);
    // Invoke in place: disarming first makes a deschedule of this
    // handle during the callback a no-op, and the slot is not on the
    // free list yet, so events the callback schedules cannot reuse it
    // and clobber the running capture. The slot returns to the pool
    // (generation bump) only after the callback finishes.
    s.armed = false;
    --_livePending;
    _curTick = e.when;
    ++_executed;
    s.cb();
    s.cb.reset();
    freeSlot(e.slot);
}

bool
EventQueue::step()
{
    skipDead();
    if (_heap.empty())
        return false;
    dispatchTop();
    return true;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    return runLoop(limit, true);
}

std::uint64_t
EventQueue::runUntil(Tick horizon)
{
    if (horizon < _curTick)
        return 0;
    std::uint64_t n = runLoop(horizon, false);
    // The quantum's time is consumed even when no event filled it:
    // later schedule() calls belong to the next quantum.
    if (_curTick < horizon)
        _curTick = horizon;
    return n;
}

Tick
EventQueue::peekNextTick()
{
    skipDead();
    return _heap.empty() ? maxTick : _heap.front().when;
}

std::uint64_t
EventQueue::runLoop(Tick limit, bool health_on_drain)
{
    std::uint64_t n = 0;
    bool drained = false;
    // Fused skip-dead / dispatch loop: one top lookup and one slot
    // dereference per event (skipDead() + dispatchTop() would each
    // redo both). Semantics match step() exactly.
    for (;;) {
        Slot *s = nullptr;
        while (!_heap.empty()) {
            const Entry &top = _heap.front();
            Slot &cand = slotRef(top.slot);
            if (cand.armed && cand.gen == top.gen) {
                s = &cand;
                break;
            }
            heapPop(); // cancelled or stale: drop the dead key
            ++_deadPopped;
        }
        if (s == nullptr) {
            drained = true;
            break;
        }
        const Entry e = _heap.front();
        if (_tickLimit != 0 && e.when > _tickLimit) {
            if (!_tickLimitHit) {
                _tickLimitHit = true;
                warn("max-tick watchdog: next event at %llu is past "
                     "the %llu-tick limit; stopping",
                     (unsigned long long)e.when,
                     (unsigned long long)_tickLimit);
            }
            break;
        }
        if (e.when > limit)
            break;
        heapPop();
        s->armed = false;
        --_livePending;
        _curTick = e.when;
        ++_executed;
        s->cb();
        s->cb.reset();
        freeSlot(e.slot);
        ++n;
    }
    if (drained && health_on_drain && !_probes.empty())
        checkHealth();
    return n;
}

std::size_t
EventQueue::registerHealthProbe(std::string name,
                                std::function<std::uint64_t()>
                                    outstanding)
{
    _probes.push_back(
        HealthProbe{std::move(name), std::move(outstanding), true});
    return _probes.size() - 1;
}

void
EventQueue::unregisterHealthProbe(std::size_t id)
{
    if (id < _probes.size()) {
        _probes[id].active = false;
        _probes[id].outstanding = nullptr;
    }
}

bool
EventQueue::checkHealth()
{
    std::uint64_t total = 0;
    const HealthProbe *first = nullptr;
    for (const auto &p : _probes) {
        if (!p.active || !p.outstanding)
            continue;
        std::uint64_t o = p.outstanding();
        total += o;
        if (o != 0 && first == nullptr)
            first = &p;
    }
    if (total == 0)
        return true;
    ++_deadlocks;
    warn("event queue drained at tick %llu with %llu outstanding work "
         "item(s) (first stuck component: %s): deadlock",
         (unsigned long long)_curTick, (unsigned long long)total,
         first->name.c_str());
    return false;
}

} // namespace netdimm
