#include "workload/IperfFlow.hh"

#include <algorithm>

namespace netdimm
{

IperfFlow::IperfFlow(EventQueue &eq, std::string name, Node &sender,
                     Node &receiver, std::uint32_t segment_bytes,
                     std::uint32_t window, std::uint32_t parallel)
    : SimObject(eq, std::move(name)), _sender(sender),
      _receiver(receiver), _segBytes(segment_bytes), _window(window),
      _parallel(std::max(parallel, 1u))
{
    // Data path: receiver counts segments and returns an ACK on the
    // mirrored flow id.
    _receiver.setReceiveHandler(
        [this](const PacketPtr &pkt, Tick t) {
            if (!_running)
                return;
            _bytes.inc(pkt->bytes);
            _segs.inc();
            _latencyUs.sample(ticksToUs(t - pkt->born));
            PacketPtr ack = _receiver.makeTxPacket(
                64, _sender.id(), /*flow=*/100 + pkt->flowId);
            _receiver.sendPacket(ack);
        });
    // ACK path: every ACK releases the next segment.
    _sender.setReceiveHandler([this](const PacketPtr &, Tick) {
        if (_running)
            sendSegment();
    });
}

void
IperfFlow::enableReliable(const TransportConfig &cfg)
{
    ND_ASSERT(!_running && _flows.empty());
    TransportConfig fcfg = cfg;
    fcfg.segmentBytes = _segBytes;
    // TransportHost claims both nodes' receive handlers, replacing
    // the raw self-clocking exchange installed by the constructor.
    _txHost = std::make_unique<TransportHost>(
        eventq(), name() + ".txhost", _sender);
    _rxHost = std::make_unique<TransportHost>(
        eventq(), name() + ".rxhost", _receiver);
    for (std::uint32_t p = 0; p < _parallel; ++p) {
        auto flow = std::make_unique<TransportFlow>(
            eventq(), name() + ".flow" + std::to_string(p), fcfg,
            /*flow_id=*/1 + p);
        connectFlow(*flow, *_txHost, *_rxHost);
        TransportFlow *f = flow.get();
        // Self-clocking refill: every delivered segment enqueues the
        // next one, like the raw mode's ACK-released segments.
        flow->setDeliveryHandler(
            [this, f](const PacketPtr &pkt, Tick t) {
                _bytes.inc(pkt->bytes);
                _segs.inc();
                _latencyUs.sample(ticksToUs(t - pkt->born));
                if (_running)
                    f->send(_segBytes);
            });
        _flows.push_back(std::move(flow));
    }
}

void
IperfFlow::start()
{
    _running = true;
    _startTick = curTick();
    if (!_flows.empty()) {
        std::uint32_t per_flow =
            std::max(1u, _window / std::uint32_t(_flows.size()));
        for (auto &f : _flows)
            f->send(std::uint64_t(per_flow) * _segBytes);
        return;
    }
    for (std::uint32_t i = 0; i < _window; ++i)
        sendSegment();
}

std::uint64_t
IperfFlow::retransmissions() const
{
    std::uint64_t n = 0;
    for (const auto &f : _flows)
        n += f->retransmissions();
    return n;
}

std::uint64_t
IperfFlow::ecnEchoes() const
{
    std::uint64_t n = 0;
    for (const auto &f : _flows)
        n += f->ecnEchoes();
    return n;
}

std::uint64_t
IperfFlow::timeouts() const
{
    std::uint64_t n = 0;
    for (const auto &f : _flows)
        n += f->timeouts();
    return n;
}

std::uint64_t
IperfFlow::enqueuedBytes() const
{
    std::uint64_t n = 0;
    for (const auto &f : _flows)
        n += f->enqueuedBytes();
    return n;
}

std::uint32_t
IperfFlow::abortedFlows() const
{
    std::uint32_t n = 0;
    for (const auto &f : _flows)
        if (f->aborted())
            ++n;
    return n;
}

void
IperfFlow::sendSegment()
{
    std::uint64_t flow = 1 + (_seq++ % _parallel);
    PacketPtr pkt =
        _sender.makeTxPacket(_segBytes, _receiver.id(), flow);
    _sender.sendPacket(pkt);
}

double
IperfFlow::goodputGbps() const
{
    Tick now = curTick();
    if (now <= _startTick)
        return 0.0;
    return double(deliveredBytes()) * 8.0 /
           ticksToSec(now - _startTick) / 1e9;
}

} // namespace netdimm
