#include "net/Switch.hh"

#include <algorithm>

namespace netdimm
{

Switch::Switch(EventQueue &eq, std::string name, Tick port_latency,
               std::uint32_t queue_frames, std::uint32_t ecn_threshold)
    : SimObject(eq, std::move(name)), _portLatency(port_latency),
      _queueFrames(queue_frames), _ecnThreshold(ecn_threshold)
{
}

Switch::Switch(EventQueue &eq, std::string name, const EthConfig &cfg)
    : Switch(eq, std::move(name), cfg.switchLatency,
             cfg.switchQueueFrames, cfg.ecnThresholdFrames)
{
}

Switch::Port &
Switch::portFor(EthLink *link)
{
    ND_ASSERT(link);
    auto [it, fresh] = _portOf.try_emplace(link, nullptr);
    if (fresh) {
        Port *port = &_ports.emplace_back(link);
        it->second = port;
        link->addStateListener(
            [this, port](EthLink &, bool up) { onLinkState(*port, up); });
    }
    return *it->second;
}

std::uint32_t
Switch::groupFor(const std::vector<EthLink *> &links)
{
    std::vector<Port *> members;
    members.reserve(links.size());
    for (EthLink *l : links)
        members.push_back(&portFor(l));
    // Identical member lists share one group, so re-advertising a
    // route reuses its group. A single-member group is keyed on its
    // port (a switch with one route per attached node holds one such
    // group per node); any other list costs one map lookup.
    std::uint32_t *slot;
    if (members.size() == 1) {
        slot = &members[0]->soloGroup;
    } else {
        slot = &_groupOf.try_emplace(members, noGroup).first->second;
    }
    if (*slot != noGroup)
        return *slot;

    EcmpGroup g;
    g.live.reserve(members.size());
    for (Port *m : members) {
        bool up = m->link->up();
        g.live.push_back(up);
        g.liveCount += up ? 1 : 0;
    }
    g.members = std::move(members);
    *slot = std::uint32_t(_groups.size());
    _groups.push_back(std::move(g));
    return *slot;
}

void
Switch::addRoute(std::uint32_t node_id, EthLink *out)
{
    _routes.add(node_id, groupFor({out}));
}

void
Switch::addEcmpRoute(std::uint32_t node_id,
                     const std::vector<EthLink *> &members)
{
    _routes.add(node_id, groupFor(members));
}

void
Switch::setDefaultRoute(EthLink *out)
{
    _routes.setDefault(groupFor({out}));
}

void
Switch::onLinkState(Port &port, bool up)
{
    for (EcmpGroup &g : _groups) {
        for (std::size_t i = 0; i < g.members.size(); ++i) {
            if (g.members[i] != &port || bool(g.live[i]) == up)
                continue;
            g.live[i] = up;
            if (up)
                ++g.liveCount;
            else
                --g.liveCount;
        }
    }

    if (!up && !port.queue.empty()) {
        // Frames already queued toward the dead link can never leave;
        // real switches flush them (and the transport retransmits).
        _dropsLinkDown.inc(port.queue.size());
        debugLog("%s: flushing %zu frames queued toward dead "
                 "link %s",
                 name().c_str(), port.queue.size(),
                 port.link->name().c_str());
        port.queue.clear();
    }
}

std::size_t
Switch::queueDepth(const EthLink *out) const
{
    auto it = _portOf.find(out);
    return it == _portOf.end() ? 0 : it->second->depth();
}

void
Switch::setBackgroundSource(EthLink *out, FluidBackground *bg)
{
    if (bg) {
        portFor(out).bg = bg;
        return;
    }
    auto it = _portOf.find(out);
    if (it != _portOf.end())
        it->second->bg = nullptr;
}

std::uint32_t
Switch::degradedGroups() const
{
    std::uint32_t n = 0;
    _routes.forEach([&](std::uint32_t, std::uint32_t g) {
        if (_groups[g].liveCount == 0)
            ++n;
    });
    if (_routes.hasDefault() &&
        _groups[_routes.defaultEgress()].liveCount == 0)
        ++n;
    return n;
}

std::uint32_t
Switch::totalGroups() const
{
    return std::uint32_t(_routes.size()) +
           (_routes.hasDefault() ? 1 : 0);
}

std::size_t
Switch::liveMembers(std::uint32_t node_id)
{
    const std::uint32_t *g = _routes.resolve(node_id);
    return g ? _groups[*g].liveCount : 0;
}

Switch::Port *
Switch::selectMember(const EcmpGroup &g, const PacketPtr &pkt) const
{
    std::size_t live = g.liveCount;
    if (live == 0)
        return nullptr;
    if (g.members.size() == 1)
        return g.members[0];
    // Hash over the live members only: the k-th live member, where k
    // is a pure function of the packet's flow-identifying fields. A
    // member death re-maps only the flows that hashed to it (plus the
    // unavoidable modulus reshuffle).
    std::size_t k = std::size_t(
        ecmpFlowHash(pkt->srcNode, pkt->dstNode, pkt->flowId) % live);
    if (live == g.members.size())
        return g.members[k];
    for (std::size_t i = 0; i < g.members.size(); ++i) {
        if (!g.live[i])
            continue;
        if (k == 0)
            return g.members[i];
        --k;
    }
    return nullptr; // unreachable: k < live
}

void
Switch::deliver(const PacketPtr &pkt)
{
    const std::uint32_t *g = _routes.resolve(pkt->dstNode);
    if (!g) {
        _routes.noteNoRoute();
        debugLog("%s: no route for node %u, dropping frame %llu",
                 name().c_str(), pkt->dstNode,
                 static_cast<unsigned long long>(pkt->id));
        return;
    }
    Port *out = selectMember(_groups[*g], pkt);
    if (!out) {
        _dropsNoPath.inc();
        debugLog("%s: every path to node %u is down, dropping frame "
                 "%llu",
                 name().c_str(), pkt->dstNode,
                 static_cast<unsigned long long>(pkt->id));
        return;
    }

    pkt->lat.add(LatComp::Wire, _portLatency);
    scheduleRel(_portLatency, [this, out, pkt] { enqueue(*out, pkt); });
}

void
Switch::enqueue(Port &port, const PacketPtr &pkt)
{
    // The egress link may have died between lookup and enqueue; the
    // port-latency pipeline cannot un-route the frame, so it is lost
    // exactly like a frame flushed from the queue.
    if (!port.link->up()) {
        _dropsLinkDown.inc();
        return;
    }
    std::size_t depth = port.depth();
    if (port.bg)
        depth += port.bg->backlogFramesAt(curTick());
    if (_queueFrames > 0 && depth >= _queueFrames) {
        _dropsQueue.inc();
        debugLog("%s: egress queue to %s full (%zu), tail-dropping "
                 "frame %llu",
                 name().c_str(), port.link->name().c_str(), depth,
                 static_cast<unsigned long long>(pkt->id));
        return;
    }
    if (_ecnThreshold > 0 && depth >= _ecnThreshold) {
        pkt->ecnMarked = true;
        _ecnMarks.inc();
    }
    _frames.inc();
    _maxDepth = std::max<std::uint64_t>(_maxDepth, depth + 1);
    port.queue.push_back(pkt);
    if (!port.draining)
        drain(port);
}

void
Switch::drain(Port &port)
{
    if (port.queue.empty()) {
        port.draining = false;
        return;
    }
    port.draining = true;
    PacketPtr pkt = port.queue.pop_front();
    port.link->send(this, pkt);
    // The next frame may start once this one finished serializing.
    Port *p = &port;
    scheduleRel(port.link->frameTicks(pkt->bytes),
                [this, p] { drain(*p); });
}

std::uint32_t
localityHops(TrafficLocality loc)
{
    switch (loc) {
      case TrafficLocality::IntraRack:
        return 1;
      case TrafficLocality::IntraCluster:
        return 3;
      case TrafficLocality::IntraDatacenter:
        return 5;
      case TrafficLocality::InterDatacenter:
        return 7;
    }
    return 1;
}

Tick
localityPropagation(TrafficLocality loc)
{
    switch (loc) {
      case TrafficLocality::IntraRack:
        return nsToTicks(25);
      case TrafficLocality::IntraCluster:
        return nsToTicks(150);
      case TrafficLocality::IntraDatacenter:
        return nsToTicks(600);
      case TrafficLocality::InterDatacenter:
        // Campus-scale DC pair (a metro pair would add tens of
        // microseconds and drown every endpoint effect).
        return usToTicks(1.5);
    }
    return 0;
}

ClosFabric::ClosFabric(EventQueue &eq, std::string name,
                       const EthConfig &cfg)
    : SimObject(eq, std::move(name)), _cfg(cfg)
{
}

void
ClosFabric::attach(std::uint32_t node_id, NetEndpoint *ep)
{
    ND_ASSERT(ep);
    _routes.add(node_id, ep);
}

Tick
ClosFabric::pathDelay(std::uint32_t bytes, TrafficLocality loc) const
{
    std::uint32_t hops = localityHops(loc);
    std::uint32_t frame =
        std::max(bytes, _cfg.minFrameBytes) + _cfg.framingBytes;
    // Store-and-forward: every hop re-serializes the frame and adds
    // its port-to-port latency.
    Tick per_hop =
        serializationTicks(frame, _cfg.gbps) + _cfg.switchLatency;
    return Tick(hops) * per_hop + localityPropagation(loc) +
           _cfg.macLatency;
}

void
ClosFabric::forward(const PacketPtr &pkt, TrafficLocality loc)
{
    NetEndpoint **route = _routes.resolve(pkt->dstNode);
    if (!route) {
        // A frame to a node the fabric does not know is the network
        // equivalent of a misdelivered packet: real fabrics drop it
        // (and a reliable transport retransmits or gives up); only a
        // simulator bug makes it fatal. Warn once, count, drop.
        if (_routes.dropsNoRoute() == 0)
            warn("%s: unattached node %u, dropping (counted in "
                 "dropsNoRoute)",
                 name().c_str(), pkt->dstNode);
        _routes.noteNoRoute();
        return;
    }

    Tick delay = pathDelay(pkt->bytes, loc);
    pkt->lat.add(LatComp::Wire, delay);
    _frames.inc();
    NetEndpoint *dst = *route;
    scheduleRel(delay, [dst, pkt] { dst->deliver(pkt); });
}

void
ClosFabric::deliver(const PacketPtr &pkt)
{
    forward(pkt, pkt->locality);
}

} // namespace netdimm
