/**
 * @file
 * Cross-shard packet conduit for the pod-sharded PDES driver
 * (sim/ParallelSim.hh, DESIGN.md §16).
 *
 * A PacketChannel is both halves of one inter-shard wire: the
 * producing shard's CrossShardSink (EthLink::connectRemote pushes
 * into it at send time) and the consuming shard's ShardIngress (the
 * driver pumps it each quantum).
 * Entries are ShardFrames — a full Packet BY VALUE plus its send and
 * arrival ticks — so the sender's pooled PacketPtr never crosses the
 * thread boundary; the consumer materializes a fresh pooled packet on
 * its own thread, preserving the pool confinement contract of
 * DESIGN.md §12.
 *
 * The pump's completeness rule keys on SEND ticks, which are monotone
 * per channel by construction (a shard's clock never goes backwards),
 * not on arrival ticks, which are not monotone (a link's delay
 * varies with frame size).
 */

#ifndef NETDIMM_NET_SHARDLINK_HH
#define NETDIMM_NET_SHARDLINK_HH

#include <cstdint>

#include "net/Link.hh"
#include "sim/ParallelSim.hh"
#include "sim/ShardChannel.hh"

namespace netdimm
{

/** One frame in flight between shards. */
struct ShardFrame
{
    Tick sendTick; ///< producer's clock at send (monotone per channel)
    Tick when;     ///< arrival tick at the consuming endpoint
    Packet pkt;    ///< the frame itself, by value
};

/**
 * SPSC packet conduit between exactly two shards. Create one per
 * cross-shard link direction via ShardHost::channel<PacketChannel>(key)
 * — both shards resolve the same key to the same object; the producer
 * side hands it to a half-link or fabric as a CrossShardSink, the
 * consumer side calls setTarget() and registers it as ingress.
 */
class PacketChannel : public CrossShardSink, public ShardIngress
{
  public:
    PacketChannel() = default;

    /** Consumer side, before the run: where pumped frames land. */
    void setTarget(NetEndpoint *ep) { _target = ep; }

    // -- producer side ---------------------------------------------------

    void
    push(Tick send_tick, Tick when, const Packet &pkt) override
    {
        _q.push(ShardFrame{send_tick, when, pkt});
    }

    // -- consumer side ---------------------------------------------------

    std::size_t pump(EventQueue &eq, Tick send_before) override;

    // -- counters (any thread) -------------------------------------------

    std::uint64_t framesPushed() const { return _q.pushes(); }
    std::uint64_t framesPumped() const { return _q.pops(); }
    std::uint64_t chunkAllocs() const { return _q.chunkAllocs(); }

  private:
    ShardChannel<ShardFrame> _q;
    NetEndpoint *_target = nullptr;
};

/**
 * The conservative lookahead of a cross-shard EthLink with config
 * @p cfg: the minimum time between a frame's send tick and its
 * arrival at the far endpoint — minimum-size serialization plus
 * propagation plus the receiver MAC. Any ParallelSim quantum at or
 * below this value is safe for topologies whose only cross-shard
 * edges are such links.
 */
Tick ethLinkLookahead(const EthConfig &cfg);

} // namespace netdimm

#endif // NETDIMM_NET_SHARDLINK_HH
