/**
 * @file
 * allocCache (Sec. 4.2.2): a hash table of pre-allocated NetDIMM
 * pages, a few per distinct sub-array, so on-demand DMA buffer
 * allocation "on the same sub-array as X" is O(1) and off the
 * critical path. The driver refills consumed entries in the
 * background.
 */

#ifndef NETDIMM_KERNEL_ALLOCCACHE_HH
#define NETDIMM_KERNEL_ALLOCCACHE_HH

#include <deque>
#include <vector>

#include "kernel/PageAllocator.hh"
#include "sim/SimObject.hh"
#include "sim/Stats.hh"
#include "sim/SystemConfig.hh"

namespace netdimm
{

class AllocCache : public SimObject
{
  public:
    /**
     * @param zone_alloc the NET(i) zone allocator to prefill from.
     * @param pages_per_subarray entries kept per distinct sub-array
     *        (the paper uses 2, i.e. 32K pages / 128MB for a two-rank
     *        NetDIMM).
     * @param refill_delay background refill latency per page.
     */
    AllocCache(EventQueue &eq, std::string name,
               NetdimmZoneAllocator &zone_alloc,
               std::uint32_t pages_per_subarray,
               Tick refill_delay = usToTicks(1));

    /**
     * allocCache[hint]: instantly return a page on the same sub-array
     * as @p hint.
     *
     * @param fast set true when the entry came from the cache (zero
     *        cost), false when the cache was empty and the caller
     *        must charge the slow allocation path.
     * @return host-physical page address.
     */
    Addr take(Addr hint, bool &fast);

    /** Hint-less variant (descriptor rings, -1 hint). */
    Addr takeAny(bool &fast);

    /** Return a page (packet freed); it re-enters the cache. */
    void release(Addr page);

    /** Pages currently cached. */
    std::uint64_t cachedPages() const { return _cached; }

    std::uint64_t fastHits() const { return _fastHits.value(); }
    std::uint64_t slowAllocs() const { return _slowAllocs.value(); }

  private:
    NetdimmZoneAllocator &_zone;
    const DimmDecoder &_dec; ///< the zone's; maps a page to its pool
    Addr _base;              ///< the zone's region base
    std::uint32_t _perSa;
    Tick _refillDelay;
    /** Cached pages per sub-array index. */
    std::vector<std::vector<Addr>> _pool;
    std::uint64_t _cached = 0;
    std::uint32_t _cursor = 0;
    bool _refillScheduled = false;
    std::deque<std::uint32_t> _refillQueue;

    stats::Scalar _fastHits, _slowAllocs;

    Addr takeFrom(std::uint32_t sa, bool &fast);
    void scheduleRefill(std::uint32_t sa);
    void doRefill();
};

} // namespace netdimm

#endif // NETDIMM_KERNEL_ALLOCCACHE_HH
