/**
 * @file
 * A complete simulated server node.
 *
 * One Node assembles the memory system (host channels + flex address
 * map), the LLC with DDIO, the copy engine, the page allocator and --
 * depending on SystemConfig::nic -- one of the five evaluated
 * configurations: dNIC, dNIC.zcpy, iNIC, iNIC.zcpy (DiscreteNic or
 * IntegratedNic + StandardDriver) or NetDIMM (NetDimmDevice +
 * NetdimmDriver + NET0 zone allocator + allocCache). Every kind's
 * device is a NicDevice, so wiring, crash and the NIC personality's
 * counters go through endpoint() without asking which kind it is.
 *
 * Applications interact through makeTxPacket()/sendPacket() and the
 * receive handler; co-running workloads use cpuAccess() to load the
 * same memory system the network path uses.
 */

#ifndef NETDIMM_KERNEL_NODE_HH
#define NETDIMM_KERNEL_NODE_HH

#include <memory>
#include <ostream>
#include <vector>

#include "cache/Llc.hh"
#include "kernel/AllocCache.hh"
#include "kernel/CopyEngine.hh"
#include "kernel/Driver.hh"
#include "kernel/NetdimmDriver.hh"
#include "kernel/PageAllocator.hh"
#include "kernel/StandardDriver.hh"
#include "mem/MemorySystem.hh"
#include "net/Link.hh"
#include "netdimm/NetDimmDevice.hh"
#include "nic/DiscreteNic.hh"
#include "nic/IntegratedNic.hh"
#include "pcie/PcieLink.hh"

namespace netdimm
{

class Node : public SimObject
{
  public:
    Node(EventQueue &eq, std::string name, const SystemConfig &cfg,
         std::uint32_t id);

    std::uint32_t id() const { return _id; }

    // -- wiring ---------------------------------------------------------
    /** The node's NIC: the dNIC/iNIC or the NetDIMM's nNIC. */
    NicDevice *endpoint() { return _dev; }
    /** Point the NIC's transmit side at a link or fabric. */
    void setWire(std::function<void(const PacketPtr &)> wire);
    /** Convenience: wire this node to one side of @p link. Remembers
     *  the link so printStats() can report the access wire (carried /
     *  fault-dropped / corrupted / link-down frames, up state). */
    void connectTo(EthLink &link);

    // -- application API --------------------------------------------------
    /**
     * Build a TX packet of @p bytes for @p dst on @p flow, with the
     * application source buffer allocated the way this node's stack
     * expects (NET zone for pinned NetDIMM flows).
     */
    PacketPtr makeTxPacket(std::uint32_t bytes, std::uint32_t dst,
                           std::uint64_t flow = 1);

    /** Hand a packet to the driver (stamps pkt->born). */
    void sendPacket(const PacketPtr &pkt);

    void setReceiveHandler(Driver::RxHandler h);

    /** Demand memory access from a core through the LLC. */
    void cpuAccess(Addr addr, std::uint32_t size, bool write,
                   MemRequest::Completion cb);

    /** A ZONE_NORMAL page for workload use. */
    Addr allocWorkloadPage();

    /**
     * Dump every component's statistics (gem5-style name/value
     * rows): driver, NIC, LLC, memory channels, and -- on a NetDIMM
     * node -- nCache, RowClone, allocCache and the async protocol.
     */
    void printStats(std::ostream &os) const;

    // -- whole-node lifecycle (DESIGN.md §15) ---------------------------
    /** False between crash() and restart(). */
    bool alive() const { return _alive; }
    /** Power-cycle generation: bumped at every crash(), so workload
     *  callbacks can detect completions that straddled a reboot. */
    std::uint64_t bootGen() const { return _bootGen; }
    /**
     * Whole-node power failure: the access link drops carrier (PR 3
     * epoch rule kills frames in flight), the driver loses its
     * in-flight descriptors and pending RX work, and the device's
     * volatile state (nCache, handler queue/cores/served ops) is
     * wiped. Books nothing — the caller's crash domain owns the
     * ledger entry.
     */
    void crash();
    /**
     * Cold boot after crash(): device function-reset, rings rebuilt,
     * RX buffers reposted, link carrier restored, then the cold-boot
     * hook replays device-side workload setup (the handler KV
     * reconfiguration). The KV store itself comes back empty, and the
     * handler serves no op until the workload's resync protocol has
     * refilled the store and reinstalled them.
     */
    void restart();
    /** Installed once; replayed at the end of every restart(). */
    void setColdBootHook(std::function<void()> fn)
    {
        _coldBoot = std::move(fn);
    }

    std::uint64_t crashesInjected() const { return _crashes.value(); }
    std::uint64_t restarts() const { return _restarts.value(); }

    // -- component access -------------------------------------------------
    const SystemConfig &config() const { return _cfg; }
    MemorySystem &mem() { return *_mem; }
    Llc &llc() { return *_llc; }
    CopyEngine &copyEngine() { return *_copy; }
    PageAllocator &pageAlloc() { return *_alloc; }
    Driver &driver() { return *_driver; }
    /** Null unless cfg.nic == NetDimm. */
    NetDimmDevice *netdimm() { return _netdimm.get(); }
    /** Null for the NetDIMM configuration (see endpoint()). */
    NicDevice *nic() { return _nic.get(); }
    /** Null unless a discrete NIC is configured. */
    PcieLink *pcie() { return _pcie.get(); }
    AllocCache *allocCache() { return _allocCache.get(); }
    /** Null unless cfg.faults.enabled. */
    FaultRegistry *faults() { return _faults.get(); }
    /** The access link wired by connectTo(); null before that. */
    EthLink *wire() { return _wire; }

  private:
    SystemConfig _cfg; ///< owned copy; benches tweak before building
    std::uint32_t _id;

    /** Declared first so every component's fault domain outlives it. */
    std::unique_ptr<FaultRegistry> _faults;
    std::unique_ptr<MemorySystem> _mem;
    std::unique_ptr<Llc> _llc;
    std::unique_ptr<CopyEngine> _copy;
    std::unique_ptr<PageAllocator> _alloc;
    std::unique_ptr<PcieLink> _pcie;
    std::unique_ptr<NicDevice> _nic;
    std::unique_ptr<NetDimmDevice> _netdimm;
    /** _nic or _netdimm, whichever this node has. */
    NicDevice *_dev = nullptr;
    std::unique_ptr<NetdimmZoneAllocator> _zoneAlloc;
    std::unique_ptr<AllocCache> _allocCache;
    std::unique_ptr<Driver> _driver;

    /** Access link wired by connectTo(); not owned. */
    EthLink *_wire = nullptr;

    // -- whole-node lifecycle -------------------------------------------
    bool _alive = true;
    std::uint64_t _bootGen = 0;
    std::function<void()> _coldBoot;
    stats::Scalar _crashes, _restarts;

    /** Round-robin application pages for standard-driver sources. */
    std::vector<Addr> _appPages;
    std::size_t _appCursor = 0;
};

/** Wire @p a and @p b to the two ends of @p link (link.connect plus
 *  both nodes' connectTo). */
void connectNodes(EthLink &link, Node &a, Node &b);

} // namespace netdimm

#endif // NETDIMM_KERNEL_NODE_HH
