/**
 * @file
 * The NIC personality shared by every NIC kind.
 *
 * A NicDevice owns the hardware side of packet TX/RX that is the same
 * wherever the NIC sits: the descriptor rings, the doorbell entry
 * point (transmit), the MAC's FCS check, the wire and driver
 * notification hooks, the fault behaviour (hang, DMA drop, power
 * fail, function reset) and the frame counters. Concrete devices
 * supply only their DMA path -- the PCIe endpoint (DiscreteNic), the
 * on-die agent (IntegratedNic) or the NetDIMM buffer device's nMC and
 * nCache (NetDimmDevice) -- and hence the cost of every host
 * interaction.
 *
 * NicDevice is not a SimObject: each concrete device brings its own
 * SimObject base (NetDimmDevice's comes with NvdimmPDevice), and this
 * class keeps the event queue and the configuration it needs.
 */

#ifndef NETDIMM_NIC_NICDEVICE_HH
#define NETDIMM_NIC_NICDEVICE_HH

#include <deque>
#include <functional>

#include "net/Link.hh"
#include "net/Packet.hh"
#include "nic/DescriptorRing.hh"
#include "sim/EventQueue.hh"
#include "sim/Fault.hh"
#include "sim/Stats.hh"
#include "sim/SystemConfig.hh"

namespace netdimm
{

class NicDevice : public NetEndpoint
{
  public:
    /**
     * Driver-side notification that a received packet's descriptor
     * became host visible at the given tick.
     */
    using RxNotify = std::function<void(const PacketPtr &, Tick)>;
    /** TX completion: the frame left the NIC or a fault dropped it
     *  (the driver retires its in-flight skb). */
    using TxNotify = std::function<void(const PacketPtr &, Tick)>;

    NicDevice(EventQueue &eq, const SystemConfig &cfg)
        : _cfg(cfg), _eq(eq)
    {
        _txRing.init(0, cfg.nicModel.ringEntries);
        _rxRing.init(0, cfg.nicModel.ringEntries);
    }

    /**
     * The wire attachment: invoked when the NIC starts emitting a
     * frame. Node wiring points this at an EthLink or a ClosFabric.
     */
    void setWire(std::function<void(const PacketPtr &)> wire)
    {
        _wire = std::move(wire);
    }

    void setRxNotify(RxNotify cb) { _rxNotify = std::move(cb); }
    void setTxNotify(TxNotify cb) { _txNotify = std::move(cb); }

    /**
     * Driver handed the NIC a filled TX descriptor (doorbell). The
     * packet's txBufAddr points at the DMA buffer. The model runs
     * the full hardware TX pipeline and attributes latency into
     * pkt->lat.
     */
    virtual void transmit(const PacketPtr &pkt) = 0;

    /**
     * Driver replenishes one RX buffer (address of an RX DMA buffer
     * associated with the next free RX descriptor).
     */
    void
    postRxBuffer(Addr buf)
    {
        if (!_rxRing.full())
            _rxRing.push(buf, _eq.curTick());
    }

    /** Wire side: frame arrived (NetEndpoint). */
    void
    deliver(const PacketPtr &pkt) override
    {
        // The MAC verifies the FCS before anything else touches the
        // frame; a corrupted frame is dropped silently.
        if (pkt->corrupted) {
            dropRx(pkt);
            return;
        }
        // A hung (or powered-off) device stops moving frames in
        // either direction.
        if (_hung || _powerDead) {
            dropRx(pkt);
            return;
        }
        rxPath(pkt);
    }

    DescriptorRing &txRing() { return _txRing; }
    DescriptorRing &rxRing() { return _rxRing; }

    // -- fault injection / recovery ------------------------------------
    /** Wire this device's fault rolls to @p domain (nullptr: none).
     *  Probabilities come from the SystemConfig fault block. */
    void setFaultDomain(FaultDomain *domain) { _faults = domain; }
    FaultDomain *faultDomain() { return _faults; }

    /** True while the device ignores doorbells and drops RX. */
    bool hung() const { return _hung; }

    /** Wedge the device deterministically (tests, campaigns). */
    void
    forceHang()
    {
        _hung = true;
        _hangs.inc();
    }

    /**
     * Driver-initiated function reset: clears the hang and zeroes
     * both ring indices (descriptors in flight are discarded; the
     * driver reposts RX buffers and requeues or drops TX skbs).
     */
    void
    reset()
    {
        // A reset that clears an injected hang closes that fault's
        // ledger entry.
        if (_hung && _faults)
            _faults->noteRecovered();
        _hung = false;
        _powerDead = false;
        _resets.inc();
        _txRing.init(_txRing.base(), _txRing.entries());
        _rxRing.init(_rxRing.base(), _rxRing.entries());
    }

    /**
     * Whole-node power failure: stop moving frames until the
     * cold-boot reset(). Unlike forceHang() no fault is booked —
     * the node-level crash domain owns the ledger entry. A device
     * with volatile state of its own wipes it here too.
     */
    virtual void powerFail() { _powerDead = true; }
    /** True between powerFail() and the cold-boot reset(). */
    bool powerDead() const { return _powerDead; }

    std::uint64_t hangs() const { return _hangs.value(); }
    std::uint64_t resets() const { return _resets.value(); }
    std::uint64_t txDmaDrops() const { return _txDmaDrops.value(); }

    // -- statistics ----------------------------------------------------
    std::uint64_t txFrames() const { return _txFrames.value(); }
    std::uint64_t rxFrames() const { return _rxFrames.value(); }
    std::uint64_t rxDrops() const { return _rxDrops.value(); }

  protected:
    /** Hardware RX pipeline; ends with notifyDriverRx(). */
    virtual void rxPath(const PacketPtr &pkt) = 0;

    /** Emit the frame onto the attached wire and retire its TX
     *  descriptor ("clean TX buffers after a successful
     *  transmission"; the driver-side work is folded into its
     *  per-packet cycles). */
    void
    sendToWire(const PacketPtr &pkt)
    {
        _txFrames.inc();
        wireOut(pkt);
        retireTx(pkt);
    }

    /** Put a frame on the wire with no TX descriptor behind it and
     *  no txFrames count (the NetDIMM handler stage's replies). */
    void
    wireOut(const PacketPtr &pkt)
    {
        ND_ASSERT(_wire);
        _wire(pkt);
    }

    /** Complete the TX descriptor at the ring head, sent or dropped
     *  with an error status, and tell the driver. */
    void
    retireTx(const PacketPtr &pkt)
    {
        Tick now = _eq.curTick();
        if (!_txRing.empty())
            _txRing.pop(now);
        if (_txNotify)
            _txNotify(pkt, now);
    }

    /**
     * Per-doorbell fault rolls at the top of transmit(). @return true
     * when the kick was consumed by a fault: either the device just
     * wedged (descriptors accumulate until the driver watchdog
     * resets it) or the DMA engine dropped this one transaction (the
     * descriptor completes with an error status but no frame reaches
     * the wire -- the transport's RTO path absorbs the loss).
     */
    bool
    faultTxCheck(const PacketPtr &pkt)
    {
        if (_hung || _powerDead)
            return true;
        if (_faults) {
            if (_faults->inject(_cfg.faults.deviceHangProb)) {
                forceHang();
                return true;
            }
            if (_faults->inject(_cfg.faults.dmaDropProb)) {
                _txDmaDrops.inc();
                retireTx(pkt);
                // The descriptor-level error completion *is* the
                // recovery: the ring keeps moving and the transport
                // retransmits the payload.
                _faults->noteRecovered();
                return true;
            }
        }
        return false;
    }

    void
    notifyDriverRx(const PacketPtr &pkt, Tick visible)
    {
        _rxFrames.inc();
        if (_rxNotify)
            _rxNotify(pkt, visible);
    }

    void dropRx(const PacketPtr &) { _rxDrops.inc(); }

    const SystemConfig &_cfg;
    DescriptorRing _txRing;
    DescriptorRing _rxRing;

  private:
    EventQueue &_eq;
    std::function<void(const PacketPtr &)> _wire;
    RxNotify _rxNotify;
    TxNotify _txNotify;
    FaultDomain *_faults = nullptr;
    bool _hung = false;
    bool _powerDead = false;
    stats::Scalar _txFrames, _rxFrames, _rxDrops;
    stats::Scalar _hangs, _resets, _txDmaDrops;
};

} // namespace netdimm

#endif // NETDIMM_NIC_NICDEVICE_HH
