#include "net/Link.hh"

#include <algorithm>

namespace netdimm
{

EthLink::EthLink(EventQueue &eq, std::string name, const EthConfig &cfg)
    : SimObject(eq, std::move(name)), _cfg(cfg)
{
}

void
EthLink::connect(NetEndpoint *a, NetEndpoint *b)
{
    ND_ASSERT(a && b);
    _endA = a;
    _endB = b;
}

void
EthLink::connectRemote(NetEndpoint *local, CrossShardSink *sink)
{
    ND_ASSERT(local && sink);
    _endA = local;
    _remoteSink = sink;
}

Tick
EthLink::frameTicks(std::uint32_t bytes) const
{
    std::uint32_t frame =
        std::max(bytes, _cfg.minFrameBytes) + _cfg.framingBytes;
    return serializationTicks(frame, _cfg.gbps);
}

void
EthLink::requireFullLink(const char *what) const
{
    if (_remoteSink)
        panic("%s: %s on a cross-shard half-link", name().c_str(), what);
}

void
EthLink::setLinkState(bool up)
{
    requireFullLink("setLinkState");
    if (up == _up)
        return;
    _up = up;
    if (!up) {
        // Everything currently on the wire belongs to the old epoch
        // and is dropped at its arrival event.
        ++_epoch;
        _downEvents.inc();
        if (_domain)
            _domain->noteInjected();
        debugLog("%s: link down (epoch %llu)", name().c_str(),
                 static_cast<unsigned long long>(_epoch));
    } else {
        if (_domain)
            _domain->noteRecovered();
        debugLog("%s: link up", name().c_str());
    }
    for (auto &l : _listeners)
        l(*this, up);
}

void
EthLink::scheduleFlap(Tick down_at, Tick duration)
{
    requireFullLink("scheduleFlap");
    ND_ASSERT(down_at >= curTick() && duration > 0);
    // Maintenance priority: a flap scheduled for tick T applies
    // before same-tick traffic, so "down at T" is unambiguous.
    eventq().schedule(
        down_at, [this] { setLinkState(false); },
        EventPriority::Maintenance);
    eventq().schedule(
        down_at + duration, [this] { setLinkState(true); },
        EventPriority::Maintenance);
}

void
EthLink::setFaultDomain(FaultDomain *domain)
{
    requireFullLink("setFaultDomain");
    _domain = domain;
}

void
EthLink::send(NetEndpoint *from, const PacketPtr &pkt)
{
    ND_ASSERT(_endA && (_endB || _remoteSink));
    ND_ASSERT(from == _endA || from == _endB);
    if (!_up) {
        _dropsDown.inc();
        debugLog("%s: down, dropping frame %llu at the transmitter",
                 name().c_str(),
                 static_cast<unsigned long long>(pkt->id));
        return;
    }
    int dir = (from == _endA) ? 0 : 1;
    NetEndpoint *to = (from == _endA) ? _endB : _endA;

    Tick ready = curTick();
    if (_bg && dir == 0) {
        // Hybrid fidelity: the fluid backlog is a FIFO of bytes
        // already committed to this transmitter; the frame starts
        // serializing only after they drain (DESIGN.md §17).
        ready += serializationTicks(_bg->backlogWireBytesAt(curTick()),
                                    _cfg.gbps);
        std::uint32_t wire =
            std::max(pkt->bytes, _cfg.minFrameBytes) +
            _cfg.framingBytes;
        _bg->onPacketWireBytes(wire);
    }
    Tick start = std::max(ready, _txFree[dir]);
    Tick ser = frameTicks(pkt->bytes);
    _txFree[dir] = start + ser;

    Tick arrival = start + ser + _cfg.propagation + _cfg.macLatency;
    pkt->lat.add(LatComp::Wire, arrival - curTick());

    _frames.inc();
    _bytes.inc(pkt->bytes);

    // The fault hook judges the frame as it occupies the wire: a
    // dropped frame still consumed its serialization slot.
    if (_fault) {
        switch (_fault->judge(pkt)) {
          case LinkFaultHook::Verdict::Deliver:
            break;
          case LinkFaultHook::Verdict::Drop:
            _dropsFault.inc();
            debugLog("%s: dropped frame %llu (seq %llu) on the wire",
                     name().c_str(),
                     static_cast<unsigned long long>(pkt->id),
                     static_cast<unsigned long long>(pkt->seq));
            return;
          case LinkFaultHook::Verdict::Corrupt:
            _corruptFault.inc();
            pkt->corrupted = true;
            break;
        }
    }

    if (_remoteSink) {
        // Cross-shard half-link: the frame leaves this shard by
        // value, already stamped with its arrival tick. No epoch
        // check on the far side — a half-link never changes state.
        _remoteSink->push(curTick(), arrival, *pkt);
        return;
    }

    std::uint64_t epoch = _epoch;
    eventq().schedule(arrival, [this, to, pkt, epoch] {
        // A frame survives only if the link never went down while it
        // was in flight (and is not down right now).
        if (!_up || epoch != _epoch) {
            _dropsDown.inc();
            debugLog("%s: frame %llu was in flight on a dying link, "
                     "dropped",
                     name().c_str(),
                     static_cast<unsigned long long>(pkt->id));
            return;
        }
        to->deliver(pkt);
    });
}

double
EthLink::goodputGbps() const
{
    Tick now = curTick();
    if (now == 0)
        return 0.0;
    return double(_bytes.value()) * 8.0 / ticksToSec(now) / 1e9;
}

} // namespace netdimm
