#include "mem/MemorySystem.hh"

#include <algorithm>

namespace netdimm
{

MemorySystem::MemorySystem(EventQueue &eq, std::string name,
                           const SystemConfig &cfg)
    : SimObject(eq, std::move(name)), _cfg(cfg),
      _map(cfg.hostMem.totalBytes(), cfg.hostMem.channels)
{
    // The host geometry describes all channels together; each
    // controller owns one channel's share.
    DramGeometry per_channel = cfg.hostMem;
    per_channel.channels = 1;
    for (std::uint32_t c = 0; c < cfg.hostMem.channels; ++c) {
        _channels.push_back(std::make_unique<MemoryController>(
            eq, this->name() + ".mc" + std::to_string(c), cfg.dram,
            per_channel, cfg.memCtrl));
    }
}

Addr
MemorySystem::attachNetDimm(std::uint64_t bytes, std::uint32_t channel,
                            MemTarget &handler)
{
    Addr base = _map.addNetDimmRegion(bytes, channel);
    _regions.push_back(RegionHandler{&handler});
    return base;
}

void
MemorySystem::routeOne(const MemRequestPtr &req, const ChannelRoute &route)
{
    if (route.isNetDimm) {
        ND_ASSERT(route.netDimmIndex < _regions.size());
        _regions[route.netDimmIndex].target->access(req);
    } else {
        _channels[route.channel]->access(req);
    }
}

void
MemorySystem::access(const MemRequestPtr &req)
{
    ND_ASSERT(req && req->size > 0);

    // Fast path: the whole request stays within one route (always the
    // case for NetDIMM regions, which are single-channel, and for
    // conventional accesses inside one stripe).
    ChannelRoute first = _map.route(req->addr);
    ChannelRoute last = _map.route(req->addr + req->size - 1);
    if (first.channel == last.channel &&
        first.isNetDimm == last.isNetDimm &&
        first.netDimmIndex == last.netDimmIndex) {
        routeOne(req, first);
        return;
    }

    // Split across stripes; join the parts' completions, reporting
    // the latest. The parts replace the original request.
    Addr end = req->addr + req->size;
    // Two passes so the join count is final before any part is
    // routed, without buffering the parts in a heap-allocated vector:
    // first count the route extents, then create and route each part.
    auto partEnd = [&](Addr cursor, const ChannelRoute &r) {
        // Extent of this route: up to the next stripe boundary for
        // conventional memory; NetDIMM regions are contiguous.
        if (r.isNetDimm) {
            return std::min<Addr>(end,
                                  _map.netDimmBase(r.netDimmIndex) +
                                      _map.netDimmSize(r.netDimmIndex));
        }
        Addr stripe = HostAddressMap::stripeBytes;
        return std::min<Addr>(end, (cursor / stripe + 1) * stripe);
    };
    std::uint32_t nparts = 0;
    for (Addr cursor = req->addr; cursor < end;
         cursor = partEnd(cursor, _map.route(cursor)))
        ++nparts;
    auto partDone = joinParts(nparts, std::move(req->onDone));
    for (Addr cursor = req->addr; cursor < end;) {
        ChannelRoute route = _map.route(cursor);
        Addr part_end = partEnd(cursor, route);
        auto part =
            makeMemRequest(cursor, std::uint32_t(part_end - cursor),
                           req->write, req->source, partDone);
        routeOne(part, route);
        cursor = part_end;
    }
}

double
MemorySystem::hostCpuReadLatencyNs() const
{
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto &ch : _channels) {
        const auto &st = ch->sourceStats(MemSource::HostCpu);
        sum += st.readLatencyNs.sum();
        n += st.readLatencyNs.count();
    }
    return n ? sum / double(n) : 0.0;
}

} // namespace netdimm
