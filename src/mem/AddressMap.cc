#include "mem/AddressMap.hh"

#include <bit>

#include "sim/Logging.hh"

namespace netdimm
{

DimmDecoder::DimmDecoder(const DramGeometry &geo) : _geo(geo)
{
    using std::has_single_bit;
    std::uint64_t sub_array_bytes =
        std::uint64_t(geo.rowsPerSubArray) * geo.rowBytes;
    if (!has_single_bit(geo.ranksPerChannel) ||
        !has_single_bit(geo.banksPerDevice) ||
        !has_single_bit(geo.subArraysPerBank) ||
        !has_single_bit(geo.rowsPerSubArray) ||
        !has_single_bit(geo.rowBytes) || geo.rowBytes > pageBytes ||
        sub_array_bytes < pageBytes)
        panic("DimmDecoder: ranks %u, banks %u, sub-arrays %u, rows %u "
              "and row bytes %u must be powers of two, with rows no "
              "larger than a page and sub-arrays no smaller",
              geo.ranksPerChannel, geo.banksPerDevice,
              geo.subArraysPerBank, geo.rowsPerSubArray, geo.rowBytes);
    // Consecutive pages stripe over as many (bank, sub-array) lanes
    // as a sub-array holds pages before wrapping back; Fig. 9(c)
    // shows 32 lanes for the reference geometry, giving the 128KB
    // same-sub-array stride.
    _pagesPerSubArray = std::uint32_t(sub_array_bytes / pageBytes);
    _subArraysPerRank = geo.banksPerDevice * geo.subArraysPerBank;
    _subArrays = _subArraysPerRank * geo.ranksPerChannel;
    ND_ASSERT(_pagesPerSubArray <= _subArraysPerRank);
    _slotShift = std::uint32_t(std::countr_zero(_pagesPerSubArray));
    _saRankShift = std::uint32_t(std::countr_zero(_subArraysPerRank));
    _banksShift = std::uint32_t(std::countr_zero(geo.banksPerDevice));
    _rowShift = std::uint32_t(std::countr_zero(geo.rowBytes));
    _rowsPerPage = pageBytes / geo.rowBytes;
}

DramAddress
DimmDecoder::decode(Addr addr) const
{
    DramAddress out;
    std::uint32_t sa = subArrayIndex(addr);
    std::uint32_t in_rank = sa & (_subArraysPerRank - 1);
    out.rank = sa >> _saRankShift;
    out.bank = in_rank & (_geo.banksPerDevice - 1);
    out.subArray = in_rank >> _banksShift;
    std::uint32_t page_off = std::uint32_t(addr) & (pageBytes - 1);
    out.row = pageSlot(addr) * _rowsPerPage + (page_off >> _rowShift);
    out.column = page_off & (_geo.rowBytes - 1);
    return out;
}

Addr
DimmDecoder::pageAddress(std::uint32_t rank, std::uint32_t bank,
                         std::uint32_t sub_array,
                         std::uint32_t page_slot) const
{
    ND_ASSERT(rank < _geo.ranksPerChannel);
    ND_ASSERT(bank < _geo.banksPerDevice);
    ND_ASSERT(sub_array < _geo.subArraysPerBank);
    ND_ASSERT(page_slot < _pagesPerSubArray);
    return pageAddress(rank * _subArraysPerRank +
                           sub_array * _geo.banksPerDevice + bank,
                       page_slot);
}

HostAddressMap::HostAddressMap(std::uint64_t conv_bytes,
                               std::uint32_t channels)
    : _convBytes(conv_bytes), _channels(channels), _nextBase(conv_bytes)
{
    ND_ASSERT(channels > 0);
}

Addr
HostAddressMap::addNetDimmRegion(std::uint64_t bytes,
                                 std::uint32_t channel)
{
    ND_ASSERT(channel < _channels);
    Region r{_nextBase, bytes, channel};
    _regions.push_back(r);
    _nextBase += bytes;
    return r.base;
}

ChannelRoute
HostAddressMap::route(Addr addr) const
{
    ChannelRoute out;
    if (addr < _convBytes) {
        out.channel = std::uint32_t((addr / stripeBytes) % _channels);
        out.dimmOffset = addr; // controllers re-normalize as needed
        return out;
    }
    for (std::uint32_t i = 0; i < _regions.size(); ++i) {
        const Region &r = _regions[i];
        if (addr >= r.base && addr < r.base + r.size) {
            out.channel = r.channel;
            out.isNetDimm = true;
            out.netDimmIndex = i;
            out.dimmOffset = addr - r.base;
            return out;
        }
    }
    panic("address %#llx outside the mapped physical space",
          (unsigned long long)addr);
}

Addr
HostAddressMap::netDimmBase(std::uint32_t idx) const
{
    ND_ASSERT(idx < _regions.size());
    return _regions[idx].base;
}

std::uint64_t
HostAddressMap::netDimmSize(std::uint32_t idx) const
{
    ND_ASSERT(idx < _regions.size());
    return _regions[idx].size;
}

} // namespace netdimm
