/**
 * @file
 * Switched leaf-spine (folded clos) fabric made of real Switch and
 * EthLink instances, the structure the paper's dist-gem5 switch model
 * simulates (Sec. 5.1).
 *
 * Nodes attach to leaves (top-of-rack switches); every leaf connects
 * to every spine. Rack-local frames cross one switch; others cross
 * leaf -> spine -> leaf (three store-and-forward hops). Inter-rack
 * routes are ECMP groups over the spine tier: per-packet spine choice
 * is a deterministic (src, dst, flow) hash over the group's live
 * members (net/Routing.hh), so one flow stays on one path while
 * distinct flows spread across spines.
 *
 * PodFabricShard is the one builder. Built on a single EventQueue (or
 * as the only shard of a ParallelSim) the fabric is failure-aware:
 * individual uplinks or whole spine switches can fail and recover
 * (immediately or on a deterministic flap schedule), switches exclude
 * dead members from their ECMP groups at the link-down notification,
 * the fabric withdraws a spine from the remote leaves' groups when its
 * leg to the destination leaf dies (so nothing hashes into a
 * blackhole), and health() reports live/total uplinks, remaining
 * bisection capacity and per-group degradation. Split across several
 * shards (DESIGN.md §16) the fabric is static and the failure and
 * health API panics.
 */

#ifndef NETDIMM_NET_TOPOLOGY_HH
#define NETDIMM_NET_TOPOLOGY_HH

#include <memory>
#include <vector>

#include "net/ShardLink.hh"
#include "net/Switch.hh"

namespace netdimm
{

/** Snapshot of the fabric's failure state. */
struct FabricHealth
{
    std::uint32_t liveUplinks = 0;
    std::uint32_t totalUplinks = 0;
    /**
     * Aggregate capacity remaining across the leaf/spine cut, Gbps:
     * every live uplink contributes its line rate. Full-fabric value
     * is leaves * spines * linkGbps.
     */
    double bisectionGbps = 0.0;
    /** Leaf ECMP groups with no usable path left (a leaf group with
     *  no live member means an unreachable destination; spine-side
     *  groups are steered around by route withdrawal instead). */
    std::uint32_t degradedGroups = 0;
    std::uint32_t totalGroups = 0;

    bool fullyConnected() const { return degradedGroups == 0; }
};

/**
 * Shape of a multi-pod leaf-spine fabric. Node ids are procedural —
 * node n lives on global leaf n / nodesPerLeaf, and global leaf L
 * belongs to pod L / leavesPerPod — so every shard derives the full
 * routing picture from the spec alone, without exchanging attachment
 * state.
 */
struct PodFabricSpec
{
    std::uint32_t pods = 4;
    std::uint32_t leavesPerPod = 4;
    std::uint32_t spines = 8;
    std::uint32_t nodesPerLeaf = 64;
    EthConfig eth{};

    std::uint32_t totalLeaves() const { return pods * leavesPerPod; }
    std::uint32_t
    totalNodes() const
    {
        return totalLeaves() * nodesPerLeaf;
    }
    std::uint32_t
    leafOf(std::uint32_t node_id) const
    {
        return node_id / nodesPerLeaf;
    }
    std::uint32_t
    podOf(std::uint32_t node_id) const
    {
        return leafOf(node_id) / leavesPerPod;
    }

    /** Pod @p pod's switches and nodes live on this shard. */
    static unsigned
    podShard(std::uint32_t pod, unsigned shards)
    {
        return pod % shards;
    }
    /** Spine @p s lives on this shard (spines round-robin so every
     *  shard carries a fair slice of the spine tier). */
    static unsigned
    spineShard(std::uint32_t s, unsigned shards)
    {
        return s % shards;
    }

    /** The safe ParallelSim quantum: cross-shard edges are EthLinks,
     *  so the lookahead is the minimum leaf<->spine frame flight
     *  time. */
    Tick lookahead() const { return ethLinkLookahead(eth); }
};

/**
 * One shard's slice of a pod-partitioned leaf-spine fabric
 * (DESIGN.md §16). The shard owns the leaves of its pods, its share
 * of the spine tier, and every link whose TRANSMITTER it owns: a
 * leaf<->spine pair split across shards becomes two half-links, one
 * per direction, each feeding a PacketChannel the far shard pumps.
 * Because the two directions of a full-duplex link share no state,
 * the decomposition is exact — a sharded run reproduces the one-shard
 * fabric's timing tick for tick (identical ECMP member order,
 * identical serialization pipelines), which is what the
 * byte-identity tests assert.
 *
 * At one shard every uplink is a full-duplex EthLink and the
 * failure/health API below works; a sharded fabric is static.
 */
class PodFabricShard : public SimObject
{
  public:
    /**
     * Build this shard's slice and register its cross-shard channels
     * with @p host (which also names the shard id / count). Routes
     * for every node in the spec are installed up front.
     */
    PodFabricShard(ShardHost &host, std::string name,
                   const PodFabricSpec &spec);

    /** The whole fabric on one EventQueue: shard 0 of 1. */
    PodFabricShard(EventQueue &eq, std::string name,
                   const PodFabricSpec &spec);

    const PodFabricSpec &spec() const { return _spec; }

    /** True when @p node_id's pod belongs to this shard. */
    bool
    ownsNode(std::uint32_t node_id) const
    {
        return PodFabricSpec::podShard(_spec.podOf(node_id),
                                       _shards) == _shard;
    }

    /**
     * Attach endpoint @p ep as @p node_id (must be owned by this
     * shard). @return the access link; wire the node's TX at it.
     */
    EthLink &attach(std::uint32_t node_id, NetEndpoint *ep);

    /** Owned leaf for global leaf index @p l (must be owned). */
    Switch &leaf(std::uint32_t l);
    /** Owned spine @p s (must be owned). */
    Switch &spine(std::uint32_t s);

    /** Frames forwarded by this shard's switches. */
    std::uint64_t fabricFrames() const;
    /** Frames this shard pushed into cross-shard channels. */
    std::uint64_t framesExported() const;

    // -- failure injection (one-shard fabric only) -----------------------
    /** The leaf @p l <-> spine @p s uplink. */
    EthLink &uplink(std::uint32_t l, std::uint32_t s);

    /** Take the leaf @p l <-> spine @p s uplink down / up now. */
    void failLink(std::uint32_t l, std::uint32_t s)
    {
        uplink(l, s).setLinkState(false);
    }
    void recoverLink(std::uint32_t l, std::uint32_t s)
    {
        uplink(l, s).setLinkState(true);
    }

    /**
     * Fail / recover a whole spine switch as the composite of its
     * uplinks: every leaf loses (regains) that ECMP member at once.
     */
    void failSpine(std::uint32_t s);
    void recoverSpine(std::uint32_t s);

    /** Deterministic flap of one uplink: down at @p down_at for
     *  @p duration (absolute ticks). */
    void scheduleLinkFlap(std::uint32_t l, std::uint32_t s,
                          Tick down_at, Tick duration)
    {
        uplink(l, s).scheduleFlap(down_at, duration);
    }

    /**
     * Book every uplink's up/down transitions in @p reg: each link
     * gets the domain named after it, so flap ledgers replay from the
     * registry's master seed and close when every down edge recovered.
     */
    void attachFaultDomains(FaultRegistry &reg);

    // -- health (one-shard fabric only) ----------------------------------
    /** Live/total uplinks, remaining bisection capacity, degraded
     *  leaf ECMP groups. */
    FabricHealth health() const;

    /** True while any leaf has an ECMP group with no usable path. */
    bool degraded() const;

    /** Frames dropped fabric-wide because every candidate path was
     *  down (sum of the switches' dropsNoPath). */
    std::uint64_t dropsNoPath() const;
    /** Frames lost to link-down fabric-wide: in flight on a dying
     *  uplink, flushed from an egress queue, or sent into a dead
     *  link. */
    std::uint64_t dropsLinkDown() const;

  private:
    const PodFabricSpec _spec;
    unsigned _shard;
    unsigned _shards;

    std::vector<std::unique_ptr<Switch>> _ownedSwitches;
    std::vector<std::unique_ptr<EthLink>> _ownedLinks;
    std::vector<std::unique_ptr<EthLink>> _access;
    /** _leafSw[L] / _spineSw[s]: owned switch or nullptr. */
    std::vector<Switch *> _leafSw;
    std::vector<Switch *> _spineSw;
    /** [L*spines+s]: the egress this shard transmits into for that
     *  leaf->spine (up) / spine->leaf (down) direction; nullptr when
     *  the transmitter lives elsewhere. */
    std::vector<EthLink *> _up;
    std::vector<EthLink *> _down;
    /** Channels this shard produces into / consumes from (the
     *  consumed ones are kept alive for the host's ingress list). */
    std::vector<std::shared_ptr<PacketChannel>> _exports;
    std::vector<std::shared_ptr<PacketChannel>> _imports;

    /** Both public constructors; @p host is null on one EventQueue. */
    PodFabricShard(EventQueue &eq, ShardHost *host, std::string name,
                   const PodFabricSpec &spec);

    /** Channel key of the (L,s) uplink (dir 0) / downlink (dir 1). */
    std::uint64_t
    chanKey(std::uint32_t l, std::uint32_t s, int dir) const
    {
        return (std::uint64_t(l) * _spec.spines + s) * 2 + dir;
    }

    void buildSwitches();
    void buildLinks(ShardHost *host);
    /**
     * (Re)install every route for every node in the spec. Re-run on
     * each uplink transition, so it is also the route withdrawal.
     */
    void installRoutes();
    /** Panics unless the whole fabric lives on this shard. */
    void requireOneShard(const char *what) const;
};

} // namespace netdimm

#endif // NETDIMM_NET_TOPOLOGY_HH
