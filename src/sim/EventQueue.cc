#include "sim/EventQueue.hh"

namespace netdimm
{

void
EventQueue::growSlab()
{
    std::uint64_t base = std::uint64_t(_slabs.size()) * slabSize;
    if (base + slabSize > slotMask + 1)
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
    s.key = 0;
    s.nextFree = _freeHead;
    _freeHead = idx;
}

void
EventQueue::KeyHeap::push(Entry e)
{
    std::size_t i = _v.size();
    _v.push_back(e);
    Entry *h = _v.data();
    while (i > 0) {
        std::size_t p = (i - 1) / 4;
        if (!(e < h[p]))
            break;
        h[i] = h[p];
        i = p;
    }
    h[i] = e;
}

void
EventQueue::KeyHeap::pop()
{
    Entry moved = _v.back();
    _v.pop_back();
    std::size_t n = _v.size();
    if (n == 0)
        return;
    Entry *h = _v.data();
    std::size_t i = 0;
    std::size_t c;
    // Interior nodes: all four children exist, compare unrolled.
    while ((c = i * 4 + 1) + 3 < n) {
        std::size_t best = c;
        if (h[c + 1] < h[best])
            best = c + 1;
        if (h[c + 2] < h[best])
            best = c + 2;
        if (h[c + 3] < h[best])
            best = c + 3;
        if (!(h[best] < moved)) {
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
            if (h[k] < h[best])
                best = k;
        }
        if (h[best] < moved) {
            h[i] = h[best];
            i = best;
        }
    }
    h[i] = moved;
}

void
EventQueue::deschedule(std::uint64_t handle)
{
    std::uint64_t idx = handle & slotMask;
    if (handle == invalidHandle || idx >= _slabs.size() * slabSize)
        return;
    Slot &s = slotRef(std::uint32_t(idx));
    if (s.key != handle)
        return; // already ran, already cancelled, or slot recycled
    s.cb.reset();
    freeSlot(std::uint32_t(idx));
    --_livePending;
    // The heap entry stays behind; its slot no longer holds its key,
    // so skipDead() drops it when it surfaces.
}

inline EventQueue::KeyHeap *
EventQueue::skipDead()
{
    for (;;) {
        // The earlier of the two tops, live or dead: popping dead
        // keys only from the global front keeps deadKeysPopped() and
        // the depth the same as one heap holding every key.
        KeyHeap *h = &_near;
        if (_near.empty() || (!_far.empty() && _far.top() < _near.top()))
            h = &_far;
        if (h->empty())
            return nullptr;
        const Entry &top = h->top();
        if (slotRef(std::uint32_t(top.key & slotMask)).key == top.key)
            return h;
        h->pop();
        ++_deadPopped;
    }
}

inline void
EventQueue::dispatchTop(KeyHeap &h)
{
    Entry e = h.top(); // POD key, no closure copied
    h.pop();
    std::uint32_t idx = std::uint32_t(e.key & slotMask);
    Slot &s = slotRef(idx);
    // Invoke in place: disarming first makes a deschedule of this
    // handle during the callback a no-op, and the slot is not on the
    // free list yet, so events the callback schedules cannot reuse it
    // and clobber the running capture. The slot returns to the pool
    // only after the callback finishes.
    s.key = 0;
    --_livePending;
    _curTick = e.when;
    ++_executed;
    s.cb();
    s.cb.reset();
    freeSlot(idx);
}

bool
EventQueue::step()
{
    KeyHeap *h = skipDead();
    if (h == nullptr)
        return false;
    dispatchTop(*h);
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
    KeyHeap *h = skipDead();
    return h == nullptr ? maxTick : h->top().when;
}

std::uint64_t
EventQueue::runLoop(Tick limit, bool health_on_drain)
{
    std::uint64_t n = 0;
    KeyHeap *h;
    while ((h = skipDead()) != nullptr) {
        Tick when = h->top().when;
        if (_tickLimit != 0 && when > _tickLimit) {
            if (!_tickLimitHit) {
                _tickLimitHit = true;
                warn("max-tick watchdog: next event at %llu is past "
                     "the %llu-tick limit; stopping",
                     (unsigned long long)when,
                     (unsigned long long)_tickLimit);
            }
            break;
        }
        if (when > limit)
            break;
        dispatchTop(*h);
        ++n;
    }
    if (h == nullptr && health_on_drain && !_probes.empty())
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
