/**
 * @file
 * NetDIMM: the buffer device of a DIMM hosting a full NIC (Sec. 4.1,
 * Fig. 6). This class assembles the paper's components:
 *
 *  - nNIC      : a full NIC -- the NicDevice personality every NIC
 *                kind shares (rings, doorbell, MAC, faults,
 *                counters); this class adds only its DMA path
 *                through nMC and nCache.
 *  - nMC       : a MemoryController instance over the DIMM's local
 *                DRAM ranks (Fig. 9 geometry).
 *  - nController: arbitration + DMA functionality + nCache snooping;
 *                modelled by the controllerLatency charge on every
 *                internal hop and the routing logic in this class.
 *  - nCache    : read-once SRAM buffer for RX headers / prefetches.
 *  - nPrefetcher: next-n-line prefetcher feeding nCache on payload
 *                streams, disabled behind header lines.
 *  - RowClone  : in-memory buffer cloning (FPM/PSM/GCM).
 *
 * Host-side accesses arrive through the NVDIMM-P asynchronous
 * protocol (NvdimmPDevice base), which charges the XRD/RDY/SEND
 * handshake and host-channel DQ occupancy; this class resolves the
 * media side against nCache and the local DRAM.
 *
 * All public addresses are host-physical; the device rebases them
 * against its mapped region internally.
 */

#ifndef NETDIMM_NETDIMM_NETDIMMDEVICE_HH
#define NETDIMM_NETDIMM_NETDIMMDEVICE_HH

#include "handler/HandlerStage.hh"
#include "mem/RowClone.hh"
#include "netdimm/NCache.hh"
#include "nic/NicDevice.hh"
#include "nvdimm/NvdimmDevice.hh"

namespace netdimm
{

class NetDimmDevice final : public NvdimmPDevice, public NicDevice
{
  public:
    /** Same inline per-clone callback type as RowCloneEngine. */
    using CloneDone = RowCloneEngine::Completion;

    NetDimmDevice(EventQueue &eq, std::string name,
                  const SystemConfig &cfg,
                  MemoryController &host_channel);

    /** Geometry of the local DRAM (2 ranks of the Fig. 9 layout). */
    static DramGeometry localGeometry(const SystemConfig &cfg);

    /** Local DRAM capacity exposed into the host address space. */
    std::uint64_t localBytes() const;

    /**
     * Size of the host-physical window to map: local DRAM plus one
     * trailing register page (doorbells, netdimmClone registers,
     * status words) that bypasses nMC.
     */
    std::uint64_t
    mappedBytes() const
    {
        return localBytes() + pageBytes;
    }

    /** Host-physical address of the register page. */
    Addr
    regPageAddr() const
    {
        return _regionBase + localBytes();
    }

    /** The host-physical base the MemorySystem mapped us at. */
    void setRegionBase(Addr base) { _regionBase = base; }
    Addr regionBase() const { return _regionBase; }

    // -- nNIC ------------------------------------------------------------
    /**
     * The driver's descriptor kick has landed (it flushed size+flags
     * into the TX descriptor); run the hardware TX pipeline: nMC
     * descriptor fetch, local payload DMA, wire.
     */
    void transmit(const PacketPtr &pkt) override;

    /**
     * Whole-node power failure: on top of the nNIC going dead, the
     * nCache SRAM and the handler stage (queue, cores, served ops)
     * are wiped. The cold-boot reset() clears the condition.
     */
    void powerFail() override;

    /** TX frames dropped because their payload read was poisoned. */
    std::uint64_t txPoisonDrops() const
    {
        return _txPoisonDrops.value();
    }

    // -- in-memory buffer cloning ---------------------------------------
    /**
     * netdimmClone(dst, src, size): invoked after the driver's
     * register writes landed; performs the in-DRAM copy.
     */
    void cloneBuffer(Addr dst, Addr src, std::uint32_t size,
                     CloneDone cb);

    // -- component access (tests, benches) -----------------------------
    MemoryController &localMc() { return *_localMc; }
    NCache &ncache() { return _ncache; }
    RowCloneEngine &rowCloneEngine() { return *_rowClone; }
    /** Null unless cfg.handler.enabled. */
    HandlerStage *handlers() { return _handlers.get(); }

    std::uint64_t prefetchesIssued() const { return _prefetches.value(); }

  protected:
    void mediaAccess(const MemRequestPtr &req,
                     MemRequest::Completion done) override;
    Tick idealMediaLatency() const override;

    /** Offer the frame to the handler stage, else hostDeliver(). */
    void rxPath(const PacketPtr &pkt) override;

  private:
    std::unique_ptr<MemoryController> _localMc;
    NCache _ncache;
    std::unique_ptr<RowCloneEngine> _rowClone;
    std::unique_ptr<HandlerStage> _handlers;
    Addr _regionBase = 0;

    /** Last line the host read; detects sequential payload streams. */
    Addr _lastHostReadLine = ~Addr(0);

    stats::Scalar _prefetches, _txPoisonDrops;

    /** Host-physical -> DIMM-relative. */
    Addr local(Addr host_phys) const;

    /** @return true if @p host_phys falls in the register page. */
    bool isRegisterAccess(Addr host_phys) const;

    /** nPrefetcher: stream the next n lines behind @p line_local. */
    void prefetch(Addr line_local);

    void mediaRead(const MemRequestPtr &req,
                   MemRequest::Completion done);
    void mediaWrite(const MemRequestPtr &req,
                    MemRequest::Completion done);

    /** Host RX path: ring pop + DMA into local DRAM + notify. */
    void hostDeliver(const PacketPtr &pkt);
};

} // namespace netdimm

#endif // NETDIMM_NETDIMM_NETDIMMDEVICE_HH
