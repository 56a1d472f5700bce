/**
 * @file
 * allocCache's pools are indexed by DimmDecoder's sub-array index, so
 * this file never derives the Fig. 9 layout itself. The prefill and
 * every refill and slow take are hint-less zone allocations: they
 * land wherever the zone's round-robin cursor points, not on a chosen
 * sub-array.
 */

#include "kernel/AllocCache.hh"

namespace netdimm
{

AllocCache::AllocCache(EventQueue &eq, std::string name,
                       NetdimmZoneAllocator &zone_alloc,
                       std::uint32_t pages_per_subarray,
                       Tick refill_delay)
    : SimObject(eq, std::move(name)), _zone(zone_alloc),
      _dec(zone_alloc.decoder()), _base(zone_alloc.base()),
      _perSa(pages_per_subarray), _refillDelay(refill_delay)
{
    std::uint32_t total = _zone.totalSubArrays();
    _pool.resize(total);
    // Prefill (boot-time work, not simulated time): the zone's
    // round-robin cursor visits every sub-array once per `total`
    // hint-less allocations, so these leave each sub-array's pool
    // holding its first pages_per_subarray page slots.
    for (std::uint32_t i = 0; i < total * _perSa; ++i) {
        Addr page = _zone.allocPage(std::nullopt);
        _pool[_dec.subArrayIndex(page - _base)].push_back(page);
        ++_cached;
    }
}

Addr
AllocCache::takeFrom(std::uint32_t sa, bool &fast)
{
    auto &lst = _pool[sa];
    if (!lst.empty()) {
        Addr page = lst.back();
        lst.pop_back();
        --_cached;
        fast = true;
        _fastHits.inc();
        scheduleRefill(sa);
        return page;
    }
    // Cache empty for this sub-array: the caller pays the slow
    // __alloc_netdimm_pages path, which is hint-less here: the page
    // comes from the zone's round-robin cursor, so it shares the
    // hint's sub-array only by chance.
    fast = false;
    _slowAllocs.inc();
    return _zone.allocPage(std::nullopt);
}

Addr
AllocCache::take(Addr hint, bool &fast)
{
    return takeFrom(_dec.subArrayIndex(hint - _base), fast);
}

Addr
AllocCache::takeAny(bool &fast)
{
    std::uint32_t total = std::uint32_t(_pool.size());
    for (std::uint32_t probe = 0; probe < total; ++probe) {
        std::uint32_t sa = (_cursor + probe) % total;
        if (!_pool[sa].empty()) {
            _cursor = (sa + 1) % total;
            return takeFrom(sa, fast);
        }
    }
    fast = false;
    _slowAllocs.inc();
    return _zone.allocPage(std::nullopt);
}

void
AllocCache::release(Addr page)
{
    std::uint32_t sa = _dec.subArrayIndex(page - _base);
    if (_pool[sa].size() < _perSa) {
        _pool[sa].push_back(page);
        ++_cached;
    } else {
        _zone.freePage(page);
    }
}

void
AllocCache::scheduleRefill(std::uint32_t sa)
{
    _refillQueue.push_back(sa);
    if (_refillScheduled)
        return;
    _refillScheduled = true;
    scheduleRel(_refillDelay, [this] { doRefill(); });
}

void
AllocCache::doRefill()
{
    _refillScheduled = false;
    if (_refillQueue.empty())
        return;
    std::uint32_t sa = _refillQueue.front();
    _refillQueue.pop_front();
    if (_pool[sa].size() < _perSa && _zone.freePages() > 0) {
        // The refill is hint-less: it takes the zone's next
        // round-robin page, which lands on sub-array sa only by
        // chance. Keep it if its own sub-array's pool has room, else
        // free it straight back.
        Addr page = _zone.allocPage(std::nullopt);
        std::uint32_t got = _dec.subArrayIndex(page - _base);
        if (_pool[got].size() < _perSa) {
            _pool[got].push_back(page);
            ++_cached;
        } else {
            _zone.freePage(page);
        }
    }
    if (!_refillQueue.empty()) {
        _refillScheduled = true;
        scheduleRel(_refillDelay, [this] { doRefill(); });
    }
}

} // namespace netdimm
