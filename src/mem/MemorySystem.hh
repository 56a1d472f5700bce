/**
 * @file
 * Host-side memory system: the per-channel controllers plus the flex
 * interleaved physical address map (Fig. 10). Requests targeting a
 * NetDIMM region are forwarded to the registered region handler (the
 * NetDimmDevice), which models the asynchronous NVDIMM-P access over
 * that channel.
 */

#ifndef NETDIMM_MEM_MEMORYSYSTEM_HH
#define NETDIMM_MEM_MEMORYSYSTEM_HH

#include <map>
#include <memory>
#include <vector>

#include "mem/AddressMap.hh"
#include "mem/MemoryController.hh"
#include "sim/SimObject.hh"

namespace netdimm
{

class MemorySystem : public SimObject, public MemTarget
{
  public:
    MemorySystem(EventQueue &eq, std::string name,
                 const SystemConfig &cfg);

    /**
     * Route a host-physical request to the owning channel controller
     * or NetDIMM region handler; multi-beat requests spanning stripe
     * boundaries are split and joined transparently.
     */
    void access(const MemRequestPtr &req) override;

    /**
     * Reserve a host physical window for a NetDIMM installed on
     * @p channel and route it to @p handler.
     * @return base host-physical address of the region.
     */
    Addr attachNetDimm(std::uint64_t bytes, std::uint32_t channel,
                       MemTarget &handler);

    MemoryController &channel(std::uint32_t i)
    {
        return *_channels.at(i);
    }
    std::uint32_t numChannels() const
    {
        return std::uint32_t(_channels.size());
    }

    HostAddressMap &map() { return _map; }
    const HostAddressMap &map() const { return _map; }

    /** Mean HostCpu read latency across channels, ns (Fig. 12(b)). */
    double hostCpuReadLatencyNs() const;

  private:
    struct RegionHandler
    {
        MemTarget *target = nullptr;
    };

    const SystemConfig &_cfg;
    HostAddressMap _map;
    std::vector<std::unique_ptr<MemoryController>> _channels;
    std::vector<RegionHandler> _regions;

    /** Hand @p req to the target of @p route, its start's route. */
    void routeOne(const MemRequestPtr &req, const ChannelRoute &route);
};

} // namespace netdimm

#endif // NETDIMM_MEM_MEMORYSYSTEM_HH
