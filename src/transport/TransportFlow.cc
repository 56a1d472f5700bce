#include "transport/TransportFlow.hh"

#include <algorithm>

namespace netdimm
{

TransportFlow::TransportFlow(EventQueue &eq, std::string name,
                             const TransportConfig &cfg,
                             std::uint64_t flow_id)
    : SimObject(eq, std::move(name)), _cfg(cfg), _flowId(flow_id),
      _rto(cfg.minRto)
{
    ND_ASSERT(cfg.segmentBytes > 0 && cfg.window > 0);
    _cc.init(cfg);
}

// ---------------------------------------------------------------------
// Application API
// ---------------------------------------------------------------------

void
TransportFlow::send(std::uint64_t bytes)
{
    ND_ASSERT(!_closed && !_detached);
    ND_ASSERT(_makeData && _txData);
    applyDueRounds();
    if (!_started) {
        _started = true;
        _startTick = curTick();
    }
    _enqueuedBytes += bytes;
    while (bytes > 0) {
        std::uint32_t seg = std::uint32_t(
            std::min<std::uint64_t>(bytes, _cfg.segmentBytes));
        _segments.push_back(seg);
        bytes -= seg;
    }
    kickTx();
}

void
TransportFlow::close()
{
    applyDueRounds();
    _closed = true;
    finishIfDone();
}

// ---------------------------------------------------------------------
// Sender: pacing and transmission
// ---------------------------------------------------------------------

Tick
TransportFlow::paceGap(std::uint32_t bytes) const
{
    return serializationTicks(bytes, _cc.rateGbps);
}

void
TransportFlow::kickTx()
{
    if (_txScheduled || _complete || _aborted || _detached)
        return;
    Tick when = std::max(curTick(), _nextTxAllowed);
    _txScheduled = true;
    eventq().schedule(when, [this] { txLoop(); });
}

void
TransportFlow::txLoop()
{
    _txScheduled = false;
    if (_complete || _aborted || _detached)
        return;
    if (curTick() < _nextTxAllowed) {
        kickTx();
        return;
    }
    if (_next >= _segments.size() || _next - _base >= _cfg.window)
        return; // woken again by an ACK or fresh data

    applyDueRounds();
    std::uint64_t seq = _next++;
    std::uint32_t bytes = _segments[std::size_t(seq)];
    PacketPtr pkt = _makeData(bytes, _flowId);
    pkt->seq = seq;
    pkt->isAck = false;
    if (seq < _highWater) {
        pkt->retransmit = true;
        _retx.inc();
    } else {
        _highWater = seq + 1;
    }
    _nextTxAllowed = curTick() + paceGap(bytes);
    _txData(pkt);

    armRto();
    if (_rateDue == maxTick)
        _rateDue = curTick() + _cfg.rateIncreaseInterval;
    if (_next < _segments.size() && _next - _base < _cfg.window)
        kickTx();
}

// ---------------------------------------------------------------------
// Sender: acknowledgments and retransmission
// ---------------------------------------------------------------------

void
TransportFlow::onSenderReceive(const PacketPtr &ack)
{
    if (_complete || _aborted || _detached || !ack->isAck)
        return;
    applyDueRounds();
    _acksRx.inc();

    if (ack->ecnEcho) {
        _ecnEchoes.inc();
        rateCut();
    }

    if (ack->ackSeq > _base) {
        _base = std::min<std::uint64_t>(ack->ackSeq,
                                        _segments.size());
        // The ACK may cover segments we were about to re-send after a
        // go-back-N (the originals made it after all).
        _next = std::max(_next, _base);
        _dupAcks = 0;
        _rtoRetries = 0;
        _rto = _cfg.minRto;
        if (_base < _highWater)
            armRto();
        else
            cancelRto();
        finishIfDone();
        if (!hasWork())
            sealRateChain();
        kickTx();
    } else if (ack->ackSeq < _base) {
        // Stale ACK: a path change (ECMP reroute after a link death)
        // can deliver an older cumulative ACK after a newer one.
        // Counting it as a duplicate would trigger a spurious
        // go-back-N for every reroute and, under sustained reorder,
        // livelock the window; it carries no new information, drop it.
        _staleAcks.inc();
    } else if (_base < _highWater && _base >= _recover) {
        // Duplicate cumulative ACK (ackSeq == _base): the receiver is
        // still waiting for _base, so something in the window was
        // lost. While a retransmitted window is still in flight
        // (_base < _recover) its own duplicates must not trigger
        // another go-back-N, or each recovery breeds the next
        // (NewReno's recovery point).
        if (++_dupAcks >= _cfg.dupAckThreshold) {
            _dupAcks = 0;
            _recover = _highWater;
            _fastRetx.inc();
            debugLog("%s: fast retransmit from seq %llu",
                     name().c_str(),
                     static_cast<unsigned long long>(_base));
            goBackN();
        }
    }
}

void
TransportFlow::goBackN()
{
    _next = _base;
    _nextTxAllowed = curTick();
    armRto();
    kickTx();
}

void
TransportFlow::armRto()
{
    cancelRto();
    _rtoArmed = true;
    _rtoHandle =
        scheduleRel(_rto, [this] { onRtoExpired(); });
}

void
TransportFlow::cancelRto()
{
    if (_rtoArmed) {
        eventq().deschedule(_rtoHandle);
        _rtoArmed = false;
    }
}

void
TransportFlow::onRtoExpired()
{
    _rtoArmed = false;
    if (_complete || _aborted || _detached || _base >= _highWater)
        return;
    applyDueRounds();
    _timeouts.inc();
    if (++_rtoRetries > _cfg.maxRetries) {
        abort();
        return;
    }
    _rto = std::min(_rto * 2, _cfg.maxRto);
    _recover = _highWater;
    // Loss with no ECN feedback still signals congestion.
    rateCut();
    debugLog("%s: RTO expired (retry %u), go-back-N from seq %llu",
             name().c_str(), _rtoRetries,
             static_cast<unsigned long long>(_base));
    goBackN();
}

void
TransportFlow::finishIfDone()
{
    if (_complete || _aborted)
        return;
    if (!_closed || _base < _segments.size())
        return;
    _complete = true;
    _completeTick = curTick();
    cancelRto();
    endRateChain();
    if (_onComplete)
        _onComplete(*this);
}

void
TransportFlow::abort()
{
    _aborted = true;
    _completeTick = curTick();
    cancelRto();
    endRateChain();
    warn("%s: aborted after %u consecutive RTO expiries (seq %llu of "
         "%llu acked)",
         name().c_str(), _cfg.maxRetries,
         static_cast<unsigned long long>(_base),
         static_cast<unsigned long long>(_segments.size()));
    if (_onComplete)
        _onComplete(*this);
}

// ---------------------------------------------------------------------
// DCQCN-flavored rate controller
// ---------------------------------------------------------------------

void
TransportFlow::rateCut()
{
    if (_cc.cut(_cfg, curTick()))
        _rateCuts.inc();
}

void
TransportFlow::applyDueRounds()
{
    // A round reads only state the last touch left behind, and every
    // touch calls this before it changes anything, so a late round
    // computes exactly what an on-time timer event would have. A
    // round due exactly now is state maintenance: it goes before the
    // touch, as a timer at EventPriority::Maintenance would. The chain
    // keeps running past a round only while the sender has work.
    while (_rateDue <= curTick()) {
        _cc.timerRound(_cfg);
        _rateDue = hasWork() ? _rateDue + _cfg.rateIncreaseInterval
                             : maxTick;
    }
}

void
TransportFlow::sealRateChain()
{
    // Unless touched again, the chain ends with its round at _rateDue.
    // An event there advances the queue's clock, and the clock of a
    // drained queue is an output (congestion_incast divides goodput by
    // it), so one no-op event stands in for that last round.
    if (_rateDue == maxTick || _tailTick == _rateDue)
        return;
    _tailTick = _rateDue;
    _tailEvent = eventq().schedule(
        _rateDue, [] {}, EventPriority::Maintenance);
}

void
TransportFlow::endRateChain()
{
    sealRateChain();
    _rateDue = maxTick;
}

// ---------------------------------------------------------------------
// Fidelity handoff (DESIGN.md §17)
// ---------------------------------------------------------------------

FlowHandoff
TransportFlow::exportHandoff()
{
    ND_ASSERT(!_detached);
    applyDueRounds();
    FlowHandoff h;
    h.cc = _cc;
    for (std::uint64_t s = _base; s < _next; ++s)
        h.bytesInFlight += _segments[std::size_t(s)];
    for (std::uint64_t s = _next; s < _segments.size(); ++s)
        h.bytesUnsent += _segments[std::size_t(s)];
    // Quiesce: the fluid model owns these bytes now. Frames already
    // on the wire are ignored on arrival (entry points check
    // _detached) so they cannot be delivered twice.
    _detached = true;
    cancelRto();
    // A detached flow's chain ends without a final round.
    eventq().deschedule(_tailEvent);
    _rateDue = maxTick;
    return h;
}

void
TransportFlow::importHandoff(const FlowHandoff &h)
{
    ND_ASSERT(!_started && _segments.empty());
    _cc = h.cc;
}

// ---------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------

void
TransportFlow::onReceiverReceive(const PacketPtr &pkt)
{
    ND_ASSERT(_makeAck && _txAck);
    if (pkt->isAck || pkt->corrupted || _detached)
        return;

    bool mark = pkt->ecnMarked;
    if (pkt->seq == _expected) {
        ++_expected;
        _delivered.inc(pkt->bytes);
        _segsRx.inc();
        if (_onDelivery)
            _onDelivery(pkt, curTick());
    } else if (pkt->seq > _expected) {
        // Go-back-N: no reorder buffer; the duplicate cumulative ACK
        // below tells the sender where to resume.
        _oooDrops.inc();
    }
    // else: duplicate of an already-delivered segment; re-ACK.

    PacketPtr ack = _makeAck(_cfg.ackBytes, _flowId);
    ack->isAck = true;
    ack->ackSeq = _expected;
    ack->ecnEcho = mark;
    _txAck(ack);
}

} // namespace netdimm
