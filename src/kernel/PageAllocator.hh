/**
 * @file
 * Physical page allocation (Sec. 4.2.1).
 *
 * Two allocators live here:
 *
 *  - PageAllocator: the host-side allocator. ZONE_NORMAL allocations
 *    are a simple free-list over the conventional interleaved region;
 *    NET(i) zones delegate to a per-NetDIMM NetdimmZoneAllocator.
 *
 *  - NetdimmZoneAllocator: the sub-array-aware allocator behind
 *    __alloc_netdimm_pages(zone, hint). It keeps one free list of
 *    page slots per sub-array of the NetDIMM's local DRAM, indexed by
 *    DimmDecoder's sub-array index (the decoder alone knows the
 *    Fig. 9 layout), and, given a hint address, preferentially
 *    returns a page in the *same sub-array* so the in-memory clone
 *    can use FPM. The API is best effort: when the hinted sub-array
 *    has no free page the allocator falls back to the next
 *    round-robin sub-array with one, on any rank.
 */

#ifndef NETDIMM_KERNEL_PAGEALLOCATOR_HH
#define NETDIMM_KERNEL_PAGEALLOCATOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "kernel/Zones.hh"
#include "mem/AddressMap.hh"
#include "sim/Stats.hh"

namespace netdimm
{

class NetdimmZoneAllocator
{
  public:
    /**
     * @param base host-physical base of the NetDIMM region.
     * @param geo local DRAM geometry of the NetDIMM.
     */
    NetdimmZoneAllocator(Addr base, const DramGeometry &geo);

    /**
     * __alloc_netdimm_pages(zone, hint): allocate one page; with a
     * hint, prefer the hint's (rank, bank, sub-array).
     *
     * @param hint host-physical address whose sub-array to match, or
     *        std::nullopt (the paper's hint = -1).
     * @return host-physical page address.
     */
    Addr allocPage(std::optional<Addr> hint);

    /** Return a page to the pool. */
    void freePage(Addr page);

    /** @return true if @p a and @p b share a bank + sub-array. */
    bool sameSubArray(Addr a, Addr b) const;

    /** Distinct sub-arrays across all ranks. */
    std::uint32_t totalSubArrays() const { return _decoder.subArrays(); }

    std::uint64_t freePages() const { return _freePages; }
    std::uint64_t hintedHits() const { return _hintedHits.value(); }
    std::uint64_t hintedMisses() const { return _hintedMisses.value(); }

    const DimmDecoder &decoder() const { return _decoder; }
    Addr base() const { return _base; }

  private:
    Addr _base;
    DimmDecoder _decoder;
    /** Free page slots per DimmDecoder sub-array index. */
    std::vector<std::vector<std::uint16_t>> _free;
    std::uint64_t _freePages = 0;
    std::uint32_t _cursor = 0; ///< round-robin for hint-less allocs

    stats::Scalar _hintedHits, _hintedMisses;
};

class PageAllocator
{
  public:
    /**
     * @param normal_base / @p normal_bytes the conventional region
     *        carved out for kernel page allocations.
     */
    PageAllocator(Addr normal_base, std::uint64_t normal_bytes);

    /** Register the allocator for a NET(i) zone. */
    void addNetZone(std::uint32_t index,
                    NetdimmZoneAllocator *allocator);

    /**
     * Allocate @p npages contiguous pages from @p zone. NET zones
     * support only single pages (matching the paper's API).
     */
    Addr allocPages(MemZone zone, std::uint32_t npages = 1,
                    std::optional<Addr> hint = std::nullopt);

    void freePages(MemZone zone, Addr base, std::uint32_t npages = 1);

    NetdimmZoneAllocator *netZoneAllocator(std::uint32_t index);

  private:
    Addr _normalBase;
    std::uint64_t _normalBytes;
    Addr _normalBump;
    std::vector<Addr> _normalFree; ///< recycled single pages
    std::vector<NetdimmZoneAllocator *> _netZones;
};

} // namespace netdimm

#endif // NETDIMM_KERNEL_PAGEALLOCATOR_HH
