#include "net/ShardLink.hh"

namespace netdimm
{

std::size_t
PacketChannel::pump(EventQueue &eq, Tick send_before)
{
    ND_ASSERT(_target);
    std::size_t n = 0;
    const ShardFrame *f;
    while ((f = _q.front()) != nullptr && f->sendTick < send_before) {
        // Materialize the frame as a fresh pooled packet on THIS
        // (the consuming) thread; the producer's copy dies with the
        // channel entry. Arrival is >= sendTick + lookahead >= the
        // consumer's quantum start, so never in its past.
        auto p = std::allocate_shared<Packet>(PoolAlloc<Packet>{},
                                              f->pkt);
        NetEndpoint *target = _target;
        eq.schedule(f->when,
                    [target, p] { target->deliver(p); });
        _q.pop();
        ++n;
    }
    return n;
}

Tick
ethLinkLookahead(const EthConfig &cfg)
{
    std::uint32_t min_frame = cfg.minFrameBytes + cfg.framingBytes;
    return serializationTicks(min_frame, cfg.gbps) + cfg.propagation +
           cfg.macLatency;
}

} // namespace netdimm
