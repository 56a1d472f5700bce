/**
 * @file
 * Store-and-forward Ethernet switch with multipath (ECMP) routing
 * over a destination-node table, plus a clos-fabric builder used by
 * the datacenter trace replay (Sec. 5.1: dist-gem5-style switch
 * model, Fig. 12). The route-table + no-route accounting shared with
 * the ClosFabric boundary router lives in net/Routing.hh.
 */

#ifndef NETDIMM_NET_SWITCH_HH
#define NETDIMM_NET_SWITCH_HH

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "net/Link.hh"
#include "net/Routing.hh"
#include "sim/VectorFifo.hh"

namespace netdimm
{

/**
 * An output-queued switch. A frame arriving on any port is looked up
 * by destination node id, delayed by the port-to-port latency, and
 * enqueued at the output port's finite egress queue. The queue drains
 * at the output link's serialization rate; a frame arriving at a full
 * queue is tail-dropped, and frames enqueued at or above the ECN
 * threshold are marked congestion-experienced (the signal the
 * transport layer's DCQCN-style rate controller reacts to).
 *
 * A destination maps to an ECMP group of candidate egress links.
 * Per-packet selection is a deterministic (src, dst, flow) hash over
 * the group's *live* members only; a link-down notification excludes
 * the member immediately (failover latency = detection, not timeout)
 * and flushes the frames queued toward the dead link. When every
 * member of a group is down the switch counts the frame in
 * dropsNoPath and reports itself degraded.
 */
class Switch : public SimObject, public NetEndpoint
{
  public:
    /**
     * @param queue_frames per-port egress capacity in frames; 0 means
     *        unbounded (the idealized lossless model).
     * @param ecn_threshold egress depth at/above which frames are
     *        ECN-marked; 0 disables marking.
     */
    Switch(EventQueue &eq, std::string name, Tick port_latency,
           std::uint32_t queue_frames = 0,
           std::uint32_t ecn_threshold = 0);

    /** Convenience: queue/ECN/latency parameters from @p cfg. */
    Switch(EventQueue &eq, std::string name, const EthConfig &cfg);

    /** Frames destined to @p node_id leave through @p out
     *  (a single-member ECMP group). */
    void addRoute(std::uint32_t node_id, EthLink *out);

    /**
     * Frames destined to @p node_id spread over @p members by flow
     * hash; dead members are excluded until they recover. Replaces
     * any previous route for the node. An empty member list installs
     * a fully-withdrawn route (a routing-protocol withdrawal): the
     * group counts as degraded and its frames land in dropsNoPath.
     */
    void addEcmpRoute(std::uint32_t node_id,
                      const std::vector<EthLink *> &members);

    /** Frames with unknown destinations leave through @p out. */
    void setDefaultRoute(EthLink *out);

    void deliver(const PacketPtr &pkt) override;

    std::uint64_t framesForwarded() const { return _frames.value(); }
    /** Frames tail-dropped at a full egress queue. */
    std::uint64_t dropsQueue() const { return _dropsQueue.value(); }
    /** Frames dropped for lack of a route (and no default route). */
    std::uint64_t dropsNoRoute() const
    {
        return _routes.dropsNoRoute();
    }
    /** Frames whose ECMP group had every member down. */
    std::uint64_t dropsNoPath() const { return _dropsNoPath.value(); }
    /** Frames flushed from an egress queue when its link died. */
    std::uint64_t dropsLinkDown() const
    {
        return _dropsLinkDown.value();
    }
    /** Frames ECN-marked at enqueue. */
    std::uint64_t ecnMarks() const { return _ecnMarks.value(); }
    /** Deepest egress queue observed (frames), across all ports. */
    std::uint64_t maxQueueDepth() const { return _maxDepth; }
    /** Egress depth (frames) currently queued toward @p out. */
    std::size_t queueDepth(const EthLink *out) const;

    /**
     * Hybrid fidelity (DESIGN.md §17): frames fluid flows have
     * queued toward @p out count toward the depth the ECN/tail-drop
     * thresholds see (occupancy and drain timing are unchanged — the
     * link-side background source models the added wait). nullptr
     * detaches; the source is not owned.
     */
    void setBackgroundSource(EthLink *out, FluidBackground *bg);

    /** Installed routes (incl. the default) whose ECMP group has no
     *  live member; routes sharing one group count separately. */
    std::uint32_t degradedGroups() const;
    /** Installed routes, incl. the default route. */
    std::uint32_t totalGroups() const;
    /** True while any group has no live member. */
    bool degraded() const { return degradedGroups() > 0; }
    /** Live members of the group routing @p node_id (0 if none). */
    std::size_t liveMembers(std::uint32_t node_id);

  private:
    static constexpr std::uint32_t noGroup = ~std::uint32_t(0);

    /**
     * Egress state of one output link, created when a route first
     * names the link. Ports never move, so ECMP groups, in-flight
     * enqueue/drain events and the link's state listener hold Port
     * pointers and the frame path never searches a map.
     */
    struct Port
    {
        explicit Port(EthLink *l) : link(l) {}

        EthLink *link;
        /** Fluid backlog counted toward the depth, or null. */
        FluidBackground *bg = nullptr;
        /** Allocates nothing before the port's first frame. */
        VectorFifo<PacketPtr> queue;
        /** A frame is occupying the transmitter. */
        bool draining = false;
        /** Index of the single-member group {this port}, if any. */
        std::uint32_t soloGroup = noGroup;

        /** Occupancy: the frame on the transmitter plus the queue. */
        std::size_t depth() const
        {
            return queue.size() + (draining ? 1 : 0);
        }
    };

    /**
     * One ordered list of candidate egress ports, shared by every
     * route that installs the same list (a leaf's cross-rack routes
     * all share one spine group).
     */
    struct EcmpGroup
    {
        std::vector<Port *> members;
        /** live[i] mirrors members[i]->link->up(), maintained by
         *  link-state notifications so exclusion is immediate. */
        std::vector<std::uint8_t> live;
        std::size_t liveCount = 0;
    };

    Tick _portLatency;
    std::uint32_t _queueFrames;
    std::uint32_t _ecnThreshold;
    /** Destination node -> index into _groups. */
    RouteTable<std::uint32_t> _routes;
    std::vector<EcmpGroup> _groups;
    /** Groups of zero or several members by member list; a
     *  single-member group is found through its port instead. */
    std::map<std::vector<Port *>, std::uint32_t> _groupOf;
    std::deque<Port> _ports;
    /** Route install and queueDepth() find a link's port here. */
    std::map<const EthLink *, Port *> _portOf;
    stats::Scalar _frames;
    stats::Scalar _dropsQueue;
    stats::Scalar _dropsNoPath;
    stats::Scalar _dropsLinkDown;
    stats::Scalar _ecnMarks;
    std::uint64_t _maxDepth = 0;

    /** The port of @p link, created (and listening to the link's
     *  up/down edges) on first use. */
    Port &portFor(EthLink *link);
    /** Index of the group with exactly @p links as members. */
    std::uint32_t groupFor(const std::vector<EthLink *> &links);
    void onLinkState(Port &port, bool up);
    /** Flow-hash one egress out of @p g's live members, or null. */
    Port *selectMember(const EcmpGroup &g, const PacketPtr &pkt) const;
    void enqueue(Port &port, const PacketPtr &pkt);
    void drain(Port &port);
};

/** @return switch hop count for a locality class. */
std::uint32_t localityHops(TrafficLocality loc);

/** @return extra one-way propagation for a locality class. */
Tick localityPropagation(TrafficLocality loc);

/**
 * Analytic clos fabric between full node models: rather than
 * instantiating every ToR/fabric/spine switch of the datacenter, the
 * per-packet fabric delay is computed from the hop count of its
 * locality class. Endpoint NIC/driver behaviour — the subject of the
 * paper — is still fully simulated on both ends.
 */
class ClosFabric : public SimObject, public NetEndpoint
{
  public:
    ClosFabric(EventQueue &eq, std::string name, const EthConfig &cfg);

    /** Register the endpoint for @p node_id. */
    void attach(std::uint32_t node_id, NetEndpoint *ep);

    /**
     * Fabric traversal for @p pkt whose locality is @p loc; delivery
     * is scheduled at the destination endpoint.
     */
    void forward(const PacketPtr &pkt, TrafficLocality loc);

    /** NetEndpoint entry: forwards at the packet's locality. */
    void deliver(const PacketPtr &pkt) override;

    /** One-way fabric delay for a payload of @p bytes at @p loc. */
    Tick pathDelay(std::uint32_t bytes, TrafficLocality loc) const;

    /** Frames dropped because their destination was never attached. */
    std::uint64_t dropsNoRoute() const
    {
        return _routes.dropsNoRoute();
    }

  private:
    const EthConfig _cfg;
    RouteTable<NetEndpoint *> _routes;
    stats::Scalar _frames;
};

} // namespace netdimm

#endif // NETDIMM_NET_SWITCH_HH
