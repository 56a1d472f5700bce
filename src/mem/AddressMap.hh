/**
 * @file
 * Physical address decoding.
 *
 * Two concerns live here:
 *
 * 1. DramAddress decoding inside one DIMM/rank set, following the
 *    paper's Fig. 9: 1KB rows, 128 rows per sub-array, 512 sub-arrays
 *    per bank, 16 banks. Consecutive 4KB pages stripe over 32
 *    (bank, sub-array) lanes, so pages sharing a bank+sub-array
 *    recur every 128KB -- the property the sub-array-aware allocator
 *    relies on (Sec. 4.2.1). DimmDecoder also maps a page to its
 *    (sub-array index, page slot) pair and back; the NetDIMM page
 *    allocators keep their free lists by that pair and never derive
 *    the layout themselves.
 *
 * 2. Channel interleaving across the host's physical address space
 *    (Sec. 2.3): single-channel, multi-channel, and flex mode, where
 *    the conventional-DIMM region interleaves over host channels
 *    while each NetDIMM's region maps contiguously to one channel
 *    (Fig. 10).
 */

#ifndef NETDIMM_MEM_ADDRESSMAP_HH
#define NETDIMM_MEM_ADDRESSMAP_HH

#include <cstdint>
#include <vector>

#include "mem/MemRequest.hh"
#include "sim/SystemConfig.hh"

namespace netdimm
{

/** Fully decoded DRAM coordinates of an address within a DIMM. */
struct DramAddress
{
    std::uint32_t rank = 0;
    std::uint32_t bank = 0;
    std::uint32_t subArray = 0;
    std::uint32_t row = 0;        ///< row within the sub-array
    std::uint32_t column = 0;     ///< byte offset within the row

    /** Globally unique row id within the DIMM (for open-row checks). */
    std::uint64_t
    rowId(const DramGeometry &geo) const
    {
        std::uint64_t sa = std::uint64_t(bank) * geo.subArraysPerBank +
                           subArray;
        std::uint64_t r = (std::uint64_t(rank) *
                           (std::uint64_t(geo.banksPerDevice) *
                            geo.subArraysPerBank) + sa) *
                          geo.rowsPerSubArray + row;
        return r;
    }

    bool
    sameSubArray(const DramAddress &o) const
    {
        return rank == o.rank && bank == o.bank && subArray == o.subArray;
    }

    bool sameBank(const DramAddress &o) const
    {
        return rank == o.rank && bank == o.bank;
    }
};

/**
 * Decoder for one DIMM's internal geometry (used for both host DIMMs
 * and the NetDIMM local DRAM), and the only code that knows the
 * Fig. 9 page layout. A DIMM-relative page number reads, from its
 * low bits up:
 *
 *   | lane : log2(P) | page slot : log2(P) | group : rest |
 *
 * where P = pagesPerSubArray(). The page's sub-array index is
 * (group << log2(P)) | lane, counted over every (rank, bank,
 * sub-array) of the DIMM as rank * subArraysPerRank() +
 * subArray * banksPerDevice + bank; the page slot is its place among
 * the P pages of that sub-array. Every quantity is a power of two,
 * so decoding is shifts and masks.
 */
class DimmDecoder
{
  public:
    /** Panics unless every geometry quantity is a power of two. */
    explicit DimmDecoder(const DramGeometry &geo);

    /** Decode a DIMM-relative byte address. */
    DramAddress decode(Addr addr) const;

    /** Sub-array index of @p addr, in [0, subArrays()). */
    std::uint32_t
    subArrayIndex(Addr addr) const
    {
        // The page number with its page-slot bits taken out.
        std::uint64_t page = addr >> pageShift;
        std::uint64_t lane = page & (_pagesPerSubArray - 1);
        return std::uint32_t((((page >> _slotShift) - pageSlot(addr)) |
                              lane) &
                             (_subArrays - 1));
    }

    /** Page slot of @p addr within its sub-array, in
     *  [0, pagesPerSubArray()). */
    std::uint32_t
    pageSlot(Addr addr) const
    {
        return std::uint32_t(addr >> (pageShift + _slotShift)) &
               (_pagesPerSubArray - 1);
    }

    /**
     * Inverse of subArrayIndex() and pageSlot(): the DIMM-relative
     * address of page @p page_slot of sub-array @p sa_index.
     */
    Addr
    pageAddress(std::uint32_t sa_index, std::uint32_t page_slot) const
    {
        // Put the page-slot bits back in between group and lane.
        std::uint64_t lane = sa_index & (_pagesPerSubArray - 1);
        std::uint64_t group = std::uint64_t(sa_index) - lane;
        return (((group | page_slot) << _slotShift) | lane) << pageShift;
    }

    /**
     * The same inverse from decoded coordinates: the page @p page_slot
     * residing on (@p rank, @p bank, @p sub_array).
     */
    Addr pageAddress(std::uint32_t rank, std::uint32_t bank,
                     std::uint32_t sub_array,
                     std::uint32_t page_slot) const;

    /** Number of 4KB pages each sub-array holds. */
    std::uint32_t pagesPerSubArray() const { return _pagesPerSubArray; }

    /** Distinct (bank, sub-array) pairs per rank. */
    std::uint32_t subArraysPerRank() const { return _subArraysPerRank; }

    /** Distinct (rank, bank, sub-array) triples of the DIMM. */
    std::uint32_t subArrays() const { return _subArrays; }

    /** Stride (bytes) between pages sharing a bank+sub-array. */
    std::uint64_t
    sameSubArrayStride() const
    {
        return std::uint64_t(_pagesPerSubArray) * pageBytes;
    }

    const DramGeometry &geometry() const { return _geo; }

  private:
    static constexpr std::uint32_t pageShift = 12;
    static_assert(pageBytes == 1u << pageShift);

    DramGeometry _geo;
    std::uint32_t _pagesPerSubArray; ///< e.g. 32
    std::uint32_t _subArraysPerRank;
    std::uint32_t _subArrays;        ///< _subArraysPerRank * ranks
    std::uint32_t _slotShift;        ///< log2(_pagesPerSubArray)
    std::uint32_t _saRankShift;      ///< log2(_subArraysPerRank)
    std::uint32_t _banksShift;       ///< log2(banksPerDevice)
    std::uint32_t _rowShift;         ///< log2(rowBytes)
    std::uint32_t _rowsPerPage;
};

/** Routing target of a host physical address. */
struct ChannelRoute
{
    /** Index of the host memory channel the access uses. */
    std::uint32_t channel = 0;
    /** True if the address belongs to a NetDIMM local region. */
    bool isNetDimm = false;
    /** Which NetDIMM (valid when isNetDimm). */
    std::uint32_t netDimmIndex = 0;
    /** Address relative to the owning DIMM's base. */
    Addr dimmOffset = 0;
};

/**
 * Host physical address map in flex mode (Sec. 2.3, Fig. 10):
 * conventional DRAM occupies [0, convBytes) striped over all channels
 * at stripeBytes granularity; each NetDIMM i occupies a contiguous
 * window after it, routed single-channel to the channel it is
 * installed on.
 */
class HostAddressMap
{
  public:
    /** Interleave granularity of the conventional region. */
    static constexpr std::uint32_t stripeBytes = 256;

    /**
     * @param conv_bytes capacity of the interleaved conventional region.
     * @param channels number of host channels.
     */
    HostAddressMap(std::uint64_t conv_bytes, std::uint32_t channels);

    /**
     * Append a NetDIMM local region of @p bytes installed on host
     * channel @p channel.
     * @return base host physical address of the region.
     */
    Addr addNetDimmRegion(std::uint64_t bytes, std::uint32_t channel);

    /** Route a host physical address to a channel / NetDIMM region. */
    ChannelRoute route(Addr addr) const;

    /** Base address of NetDIMM region @p idx. */
    Addr netDimmBase(std::uint32_t idx) const;
    /** Size of NetDIMM region @p idx. */
    std::uint64_t netDimmSize(std::uint32_t idx) const;
    /** Total number of registered NetDIMM regions. */
    std::uint32_t numNetDimmRegions() const
    {
        return std::uint32_t(_regions.size());
    }

    std::uint64_t conventionalBytes() const { return _convBytes; }

  private:
    struct Region
    {
        Addr base;
        std::uint64_t size;
        std::uint32_t channel;
    };

    std::uint64_t _convBytes;
    std::uint32_t _channels;
    std::vector<Region> _regions;
    Addr _nextBase;
};

} // namespace netdimm

#endif // NETDIMM_MEM_ADDRESSMAP_HH
