/**
 * @file
 * Point-to-point full-duplex Ethernet link model.
 *
 * Each direction serializes frames at the configured line rate
 * (payload + framing overhead: preamble, SFD, FCS, inter-frame gap),
 * then adds cable propagation and the receiver's MAC/PHY pipeline.
 * Per-direction transmit occupancy provides store-and-forward
 * back-pressure-free bandwidth limiting.
 *
 * A link also carries an up/down state. Going down drops every frame
 * still in flight (counted in framesDroppedLinkDown) and refuses new
 * sends; both edges notify registered state listeners synchronously,
 * which is what lets a switch exclude the link from its ECMP groups
 * at detection time instead of waiting for a transport timeout.
 * Deterministic flap schedules (down at tick T for duration D) drive
 * the state from scheduled events, and an optional FaultDomain books
 * each down edge as an injected fault and each recovery as recovered.
 */

#ifndef NETDIMM_NET_LINK_HH
#define NETDIMM_NET_LINK_HH

#include <functional>
#include <vector>

#include "net/Packet.hh"
#include "sim/Fault.hh"
#include "sim/SimObject.hh"
#include "sim/Stats.hh"
#include "sim/SystemConfig.hh"

namespace netdimm
{

/** Anything that can sink packets off a link: NICs and switches. */
class NetEndpoint
{
  public:
    virtual ~NetEndpoint() = default;
    /** A frame's last bit has arrived at this endpoint. */
    virtual void deliver(const PacketPtr &pkt) = 0;
};

/**
 * Producer half of a cross-shard frame conduit (PDES, DESIGN.md §16).
 * A link or fabric whose far end lives on another shard pushes the
 * frame BY VALUE at send time, stamped with the send tick and the
 * already-computed arrival tick; the owning shard's driver pumps the
 * channel each sync quantum and schedules the arrivals locally. The
 * sink is the type-erased face of net::PacketChannel
 * (net/ShardLink.hh) so this header stays independent of the channel
 * implementation.
 */
class CrossShardSink
{
  public:
    virtual ~CrossShardSink() = default;

    /**
     * Hand one frame to the far shard.
     * @param send_tick the sender's current tick (monotone per sink —
     *        the pump's completeness criterion).
     * @param when the frame's arrival tick at the far endpoint; at
     *        least send_tick + lookahead by construction.
     * @param pkt copied into the channel; the sender's pooled packet
     *        never crosses the thread boundary.
     */
    virtual void push(Tick send_tick, Tick when, const Packet &pkt) = 0;
};

/**
 * Per-frame fault decision hook attached to a link. Implemented by
 * transport::FaultInjector; the interface lives here so nd_net does
 * not depend on nd_transport.
 */
class LinkFaultHook
{
  public:
    enum class Verdict
    {
        Deliver, ///< frame arrives intact
        Drop,    ///< frame vanishes on the wire
        Corrupt, ///< frame arrives with a bad FCS and is dropped by
                 ///< the receiving MAC
    };

    virtual ~LinkFaultHook() = default;
    /** Judge one frame about to traverse the link. */
    virtual Verdict judge(const PacketPtr &pkt) = 0;
};

/**
 * Aggregate load of fluid-modeled flows as seen by the packet-level
 * network (hybrid fidelity, DESIGN.md §17). Implemented by
 * flow::FluidLink; the interface lives here so nd_net does not
 * depend on nd_flow. A link or switch port with a background source
 * treats the fluid backlog as frames already queued ahead of each
 * packet-level frame: the link delays the frame by the backlog's
 * serialization time, the switch adds the backlog to the queue depth
 * its ECN/tail-drop thresholds see. With no source installed (the
 * default) both run their exact legacy code paths.
 */
class FluidBackground
{
  public:
    virtual ~FluidBackground() = default;

    /** Fluid backlog queued ahead at @p now, in wire bytes. */
    virtual std::uint64_t backlogWireBytesAt(Tick now) const = 0;

    /** The same backlog expressed in reference frames (for the
     *  switch's frame-granular ECN/tail-drop thresholds). */
    virtual std::uint64_t backlogFramesAt(Tick now) const = 0;

    /**
     * A packet-level frame of @p wire_bytes claimed the transmitter;
     * the fluid model deducts the measured packet rate from the
     * capacity its flows compete for (two-way interference).
     */
    virtual void onPacketWireBytes(std::uint32_t wire_bytes) = 0;
};

class EthLink : public SimObject
{
  public:
    /** Observes up/down transitions of a link (switches, topology). */
    using StateListener = std::function<void(EthLink &, bool up)>;

    EthLink(EventQueue &eq, std::string name, const EthConfig &cfg);

    /** Wire both ends. Must be called before send(). */
    void connect(NetEndpoint *a, NetEndpoint *b);

    /**
     * Wire this link as the LOCAL HALF of a cross-shard link: @p local
     * transmits into @p sink; the far shard owns the opposite
     * direction as its own half-link (full duplex decomposes cleanly
     * because the two directions share no transmitter state). Only
     * the A->B direction exists on a half-link, and its state is
     * fixed up: a transition would have to reach the far shard and
     * the frames already in the channel, so setLinkState,
     * scheduleFlap and setFaultDomain panic. Frames still serialize,
     * accrue Wire latency and pass the fault hook exactly like local
     * sends.
     */
    void connectRemote(NetEndpoint *local, CrossShardSink *sink);

    /**
     * Transmit @p pkt from endpoint @p from to the opposite end.
     * Serialization + propagation + MAC time is attributed to the
     * packet's Wire latency component.
     */
    void send(NetEndpoint *from, const PacketPtr &pkt);

    /** Serialization time of one frame carrying @p bytes payload. */
    Tick frameTicks(std::uint32_t bytes) const;

    /**
     * Install a fault hook judging every frame; nullptr (default)
     * makes the link lossless. The hook is not owned.
     */
    void setFaultHook(LinkFaultHook *hook) { _fault = hook; }

    /**
     * Install a fluid background source on the A->B direction (the
     * direction the fluid model covers); nullptr (default) restores
     * the exact legacy timing path. The source is not owned. Frames
     * sent A->B wait behind the fluid backlog's serialization time
     * and report their own wire bytes back to the source.
     */
    void setBackgroundSource(FluidBackground *bg) { _bg = bg; }

    // -- link state ------------------------------------------------------
    bool up() const { return _up; }

    /**
     * Force the link up or down now. Idempotent; an actual transition
     * notifies every registered listener synchronously. A down edge
     * dooms the frames currently in flight: they are counted in
     * framesDroppedLinkDown() when their arrival event fires.
     * Panics on a half-link.
     */
    void setLinkState(bool up);

    /**
     * Deterministic flap: go down at absolute tick @p down_at and
     * recover @p duration ticks later. May be called repeatedly to
     * build a schedule; consumes no randomness. Panics on a half-link.
     */
    void scheduleFlap(Tick down_at, Tick duration);

    /**
     * Book up/down transitions in @p domain's recovery ledger: each
     * down edge counts injected, each recovery recovered. Not owned.
     * Panics on a half-link.
     */
    void setFaultDomain(FaultDomain *domain);

    /** Register @p l for up/down transition callbacks. */
    void addStateListener(StateListener l)
    {
        _listeners.push_back(std::move(l));
    }

    std::uint64_t framesCarried() const { return _frames.value(); }
    std::uint64_t bytesCarried() const { return _bytes.value(); }
    /** Frames dropped on the wire by the fault hook. */
    std::uint64_t framesDropped() const { return _dropsFault.value(); }
    /**
     * Frames corrupted in flight (bad FCS). A corrupted frame still
     * occupies the wire but the receiving MAC's FCS check discards
     * it, so it is never delivered to a driver.
     */
    std::uint64_t framesCorrupted() const
    {
        return _corruptFault.value();
    }
    /** Frames lost to link-down: sent while down or in flight on a
     *  dying link. */
    std::uint64_t framesDroppedLinkDown() const
    {
        return _dropsDown.value();
    }
    /** Down edges observed so far. */
    std::uint64_t downEvents() const { return _downEvents.value(); }

    /** Achieved goodput since construction, Gbps. */
    double goodputGbps() const;

  private:
    const EthConfig _cfg;
    NetEndpoint *_endA = nullptr;
    NetEndpoint *_endB = nullptr;
    CrossShardSink *_remoteSink = nullptr;
    LinkFaultHook *_fault = nullptr;
    FluidBackground *_bg = nullptr;
    FaultDomain *_domain = nullptr;
    /** Per-direction transmitter-free times: [0]=A->B, [1]=B->A. */
    Tick _txFree[2] = {0, 0};

    bool _up = true;
    /** Bumped on every down edge; frames in flight from an older
     *  epoch are dropped at arrival. */
    std::uint64_t _epoch = 0;
    std::vector<StateListener> _listeners;

    stats::Scalar _frames;
    stats::Scalar _bytes;
    stats::Scalar _dropsFault;
    stats::Scalar _corruptFault;
    stats::Scalar _dropsDown;
    stats::Scalar _downEvents;

    /** Panics if this is a cross-shard half-link. */
    void requireFullLink(const char *what) const;
};

} // namespace netdimm

#endif // NETDIMM_NET_LINK_HH
