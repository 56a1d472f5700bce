/**
 * @file
 * Reliable, congestion-controlled unidirectional flow on top of the
 * frame layer.
 *
 * The sender half segments application bytes, paces them at the rate
 * controller's current rate, and keeps a go-back-N window of
 * unacknowledged segments guarded by an exponentially backed-off RTO
 * timer with bounded retries. The receiver half delivers payload
 * strictly in order and answers every data segment with a cumulative
 * ACK that echoes the segment's ECN mark. Stale (reordered) ACKs --
 * the signature of an ECMP reroute after a fabric failover -- are
 * recognised and ignored rather than treated as loss duplicates, so a
 * path change cannot trigger spurious go-back-N storms.
 *
 * Rate control is DCQCN-flavored (Zhu et al., SIGCOMM'15): an ECN
 * echo cuts the current rate multiplicatively by alpha/2 and raises
 * the congestion estimate alpha; a periodic timer round decays alpha
 * and recovers the rate through fast-recovery, additive, and hyper
 * increase stages.
 *
 * The timer rounds are not events. A round is a pure function of the
 * rate-controller state, and nothing reads the result before the
 * flow's next touch (transmit, ACK, RTO, send/close, handoff or a rate
 * query), so each touch first applies every round due at or before
 * curTick() (DESIGN.md §8).
 */

#ifndef NETDIMM_TRANSPORT_TRANSPORTFLOW_HH
#define NETDIMM_TRANSPORT_TRANSPORTFLOW_HH

#include <functional>
#include <vector>

#include "net/Packet.hh"
#include "sim/SimObject.hh"
#include "sim/Stats.hh"
#include "sim/SystemConfig.hh"
#include "transport/Dcqcn.hh"

namespace netdimm
{

class TransportFlow : public SimObject
{
  public:
    /** Emit a fully built frame toward the network. */
    using TxFn = std::function<void(const PacketPtr &)>;
    /** Build a frame of @p bytes on @p flow (node-specific buffers). */
    using MakeFn = std::function<PacketPtr(std::uint32_t bytes,
                                           std::uint64_t flow)>;
    /** An in-order segment became visible to the application. */
    using DeliveryFn = std::function<void(const PacketPtr &, Tick)>;
    /** Flow finished (all bytes acked) or aborted. */
    using CompletionFn = std::function<void(TransportFlow &)>;

    TransportFlow(EventQueue &eq, std::string name,
                  const TransportConfig &cfg, std::uint64_t flow_id);

    std::uint64_t flowId() const { return _flowId; }
    const TransportConfig &config() const { return _cfg; }

    // -- wiring ---------------------------------------------------------
    /** Wire the sender half: how data segments are built and sent. */
    void
    bindSender(MakeFn make, TxFn tx)
    {
        _makeData = std::move(make);
        _txData = std::move(tx);
    }

    /** Wire the receiver half: how ACK frames are built and sent. */
    void
    bindReceiver(MakeFn make, TxFn tx)
    {
        _makeAck = std::move(make);
        _txAck = std::move(tx);
    }

    void setDeliveryHandler(DeliveryFn h) { _onDelivery = std::move(h); }
    void setCompletionHandler(CompletionFn h)
    {
        _onComplete = std::move(h);
    }

    // -- application API (sender side) ----------------------------------
    /**
     * Enqueue @p bytes of payload; they are cut into segments of at
     * most cfg.segmentBytes. May be called repeatedly (streaming).
     */
    void send(std::uint64_t bytes);

    /** No more data will be enqueued; completion fires once all
     *  outstanding segments are acknowledged. */
    void close();

    // -- fidelity handoff (DESIGN.md §17) -------------------------------
    /**
     * Demote this flow out of the packet domain: snapshot the rate
     * controller plus unsent/in-flight byte counts and *detach* the
     * flow — timers are cancelled and every later entry point becomes
     * a no-op, so in-flight frames die silently instead of being
     * double-counted by the fluid model that takes over. The snapshot
     * satisfies deliveredBytes() + bytesInFlight + bytesUnsent ==
     * enqueuedBytes() (in-flight is charged to the fluid side, the
     * go-back-N semantics of unacked data).
     */
    FlowHandoff exportHandoff();

    /**
     * Promote a fluid flow into this (fresh, never-started) flow:
     * seed the rate controller from the fluid state. Call before the
     * first send(); pacing at the imported rate spreads the in-flight
     * share over roughly one RTT.
     */
    void importHandoff(const FlowHandoff &h);

    /** True once exportHandoff() detached this flow. */
    bool detached() const { return _detached; }

    // -- network entry points -------------------------------------------
    /** An ACK frame arrived at the sender. */
    void onSenderReceive(const PacketPtr &ack);
    /** A data frame arrived at the receiver. */
    void onReceiverReceive(const PacketPtr &pkt);

    // -- state / statistics ---------------------------------------------
    bool complete() const { return _complete; }
    bool aborted() const { return _aborted; }
    Tick startTick() const { return _startTick; }
    Tick completeTick() const { return _completeTick; }
    /** Flow completion time; valid once complete(). */
    Tick fct() const { return _completeTick - _startTick; }

    /** Application bytes enqueued so far. */
    std::uint64_t enqueuedBytes() const { return _enqueuedBytes; }
    /** In-order payload bytes delivered at the receiver. */
    std::uint64_t deliveredBytes() const
    {
        return _delivered.value();
    }
    std::uint64_t deliveredSegments() const { return _segsRx.value(); }
    std::uint64_t retransmissions() const { return _retx.value(); }
    std::uint64_t timeouts() const { return _timeouts.value(); }
    std::uint64_t fastRetransmits() const
    {
        return _fastRetx.value();
    }
    std::uint64_t ecnEchoes() const { return _ecnEchoes.value(); }
    std::uint64_t rateCuts() const { return _rateCuts.value(); }
    std::uint64_t outOfOrderDrops() const { return _oooDrops.value(); }
    /** Reordered (stale) cumulative ACKs ignored by the sender. */
    std::uint64_t staleAcks() const { return _staleAcks.value(); }
    /** The pacing rate, with every timer round due by now applied. */
    double
    currentRateGbps()
    {
        applyDueRounds();
        return _cc.rateGbps;
    }

  private:
    const TransportConfig _cfg;
    std::uint64_t _flowId;

    MakeFn _makeData, _makeAck;
    TxFn _txData, _txAck;
    DeliveryFn _onDelivery;
    CompletionFn _onComplete;

    // -- sender state ---------------------------------------------------
    /** Segment sizes by sequence number. */
    std::vector<std::uint32_t> _segments;
    std::uint64_t _enqueuedBytes = 0;
    std::uint64_t _base = 0;      ///< oldest unacknowledged seq
    std::uint64_t _next = 0;      ///< next seq to (re)transmit
    std::uint64_t _highWater = 0; ///< one past the highest seq sent
    bool _closed = false;
    bool _complete = false;
    bool _aborted = false;
    bool _detached = false;
    Tick _startTick = 0;
    Tick _completeTick = 0;
    bool _started = false;

    std::uint32_t _dupAcks = 0;
    /** One go-back-N per loss event: duplicate ACKs are ignored until
     *  the window outstanding at retransmit time is fully acked. */
    std::uint64_t _recover = 0;
    std::uint32_t _rtoRetries = 0;
    Tick _rto;
    bool _rtoArmed = false;
    std::uint64_t _rtoHandle = 0;

    bool _txScheduled = false;
    Tick _nextTxAllowed = 0;

    // -- rate controller state (shared law, transport/Dcqcn.hh) ---------
    DcqcnState _cc;
    /** Tick of the next timer round; maxTick while no chain runs. */
    Tick _rateDue = maxTick;
    /** No-op event at the final round of an ending chain (see
     *  sealRateChain()), and its tick. */
    std::uint64_t _tailEvent = EventQueue::invalidHandle;
    Tick _tailTick = maxTick;

    // -- receiver state -------------------------------------------------
    std::uint64_t _expected = 0; ///< next in-order seq awaited

    stats::Scalar _delivered, _segsRx, _retx, _timeouts, _fastRetx,
        _ecnEchoes, _rateCuts, _oooDrops, _acksRx, _staleAcks;

    void txLoop();
    void kickTx();
    void armRto();
    void cancelRto();
    void onRtoExpired();
    void goBackN();
    void finishIfDone();
    void abort();

    void rateCut();
    /** True while the sender has unsent or unacknowledged segments:
     *  the timer chain keeps running past a round only then. */
    bool hasWork() const
    {
        return _base < _highWater || _next < _segments.size();
    }
    void applyDueRounds();
    void sealRateChain();
    void endRateChain();

    /** Pacing gap for a segment of @p bytes at the current rate. */
    Tick paceGap(std::uint32_t bytes) const;
};

} // namespace netdimm

#endif // NETDIMM_TRANSPORT_TRANSPORTFLOW_HH
