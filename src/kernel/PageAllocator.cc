#include "kernel/PageAllocator.hh"

#include "sim/Logging.hh"

namespace netdimm
{

NetdimmZoneAllocator::NetdimmZoneAllocator(Addr base,
                                           const DramGeometry &geo)
    : _base(base), _decoder(geo)
{
    std::uint32_t pages = _decoder.pagesPerSubArray();
    _free.resize(_decoder.subArrays());
    for (auto &lst : _free) {
        lst.reserve(pages);
        // Push in reverse so pop_back() hands out slot 0 first.
        for (std::uint32_t s = pages; s > 0; --s)
            lst.push_back(std::uint16_t(s - 1));
    }
    _freePages = std::uint64_t(_free.size()) * pages;
}

Addr
NetdimmZoneAllocator::allocPage(std::optional<Addr> hint)
{
    if (_freePages == 0)
        fatal("NET zone exhausted: no free pages");

    std::uint32_t total = std::uint32_t(_free.size());
    auto takeSlot = [&](std::uint32_t sa) {
        std::uint16_t slot = _free[sa].back();
        _free[sa].pop_back();
        --_freePages;
        return _base + _decoder.pageAddress(sa, slot);
    };
    if (hint) {
        ND_ASSERT(*hint >= _base);
        std::uint32_t sa = _decoder.subArrayIndex(*hint - _base);
        if (!_free[sa].empty()) {
            _hintedHits.inc();
            return takeSlot(sa);
        }
        _hintedMisses.inc();
        // Best effort failed; fall through to any sub-array.
    }
    for (std::uint32_t probe = 0; probe < total; ++probe) {
        std::uint32_t sa = (_cursor + probe) % total;
        if (!_free[sa].empty()) {
            _cursor = (sa + 1) % total;
            return takeSlot(sa);
        }
    }
    fatal("NET zone exhausted despite nonzero free count");
}

void
NetdimmZoneAllocator::freePage(Addr page)
{
    ND_ASSERT(page >= _base && page % pageBytes == 0);
    Addr off = page - _base;
    _free[_decoder.subArrayIndex(off)].push_back(
        std::uint16_t(_decoder.pageSlot(off)));
    ++_freePages;
}

bool
NetdimmZoneAllocator::sameSubArray(Addr a, Addr b) const
{
    ND_ASSERT(a >= _base && b >= _base);
    return _decoder.subArrayIndex(a - _base) ==
           _decoder.subArrayIndex(b - _base);
}

PageAllocator::PageAllocator(Addr normal_base,
                             std::uint64_t normal_bytes)
    : _normalBase(normal_base), _normalBytes(normal_bytes),
      _normalBump(normal_base)
{
}

void
PageAllocator::addNetZone(std::uint32_t index,
                          NetdimmZoneAllocator *allocator)
{
    if (_netZones.size() <= index)
        _netZones.resize(index + 1, nullptr);
    _netZones[index] = allocator;
}

NetdimmZoneAllocator *
PageAllocator::netZoneAllocator(std::uint32_t index)
{
    if (index >= _netZones.size())
        return nullptr;
    return _netZones[index];
}

Addr
PageAllocator::allocPages(MemZone zone, std::uint32_t npages,
                          std::optional<Addr> hint)
{
    ND_ASSERT(npages > 0);
    if (isNetZone(zone)) {
        ND_ASSERT(npages == 1);
        NetdimmZoneAllocator *na = netZoneAllocator(netZoneIndex(zone));
        if (!na)
            fatal("zone %s has no NetDIMM attached",
                  zoneName(zone).c_str());
        return na->allocPage(hint);
    }
    // ZONE_NORMAL: recycle single pages, else bump.
    if (npages == 1 && !_normalFree.empty()) {
        Addr a = _normalFree.back();
        _normalFree.pop_back();
        return a;
    }
    Addr a = _normalBump;
    _normalBump += std::uint64_t(npages) * pageBytes;
    if (_normalBump > _normalBase + _normalBytes)
        fatal("ZONE_NORMAL pool exhausted");
    return a;
}

void
PageAllocator::freePages(MemZone zone, Addr base, std::uint32_t npages)
{
    if (isNetZone(zone)) {
        NetdimmZoneAllocator *na = netZoneAllocator(netZoneIndex(zone));
        ND_ASSERT(na && npages == 1);
        na->freePage(base);
        return;
    }
    for (std::uint32_t i = 0; i < npages; ++i)
        _normalFree.push_back(base + Addr(i) * pageBytes);
}

} // namespace netdimm
