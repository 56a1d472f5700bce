#include "net/Topology.hh"

namespace netdimm
{

PodFabricShard::PodFabricShard(ShardHost &host, std::string name,
                               const PodFabricSpec &spec)
    : PodFabricShard(host.eventq(), &host, std::move(name), spec)
{
}

PodFabricShard::PodFabricShard(EventQueue &eq, std::string name,
                               const PodFabricSpec &spec)
    : PodFabricShard(eq, nullptr, std::move(name), spec)
{
}

PodFabricShard::PodFabricShard(EventQueue &eq, ShardHost *host,
                               std::string name,
                               const PodFabricSpec &spec)
    : SimObject(eq, std::move(name)), _spec(spec),
      _shard(host ? host->shardId() : 0),
      _shards(host ? host->shards() : 1)
{
    ND_ASSERT(spec.pods > 0 && spec.leavesPerPod > 0 &&
              spec.spines > 0 && spec.nodesPerLeaf > 0);
    _leafSw.assign(spec.totalLeaves(), nullptr);
    _spineSw.assign(spec.spines, nullptr);
    _up.assign(std::size_t(spec.totalLeaves()) * spec.spines,
               nullptr);
    _down.assign(std::size_t(spec.totalLeaves()) * spec.spines,
                 nullptr);
    buildSwitches();
    buildLinks(host);
    installRoutes();
}

void
PodFabricShard::buildSwitches()
{
    for (std::uint32_t l = 0; l < _spec.totalLeaves(); ++l) {
        std::uint32_t pod = l / _spec.leavesPerPod;
        if (PodFabricSpec::podShard(pod, _shards) != _shard)
            continue;
        auto sw = std::make_unique<Switch>(
            eventq(), name() + ".leaf" + std::to_string(l), _spec.eth);
        _leafSw[l] = sw.get();
        _ownedSwitches.push_back(std::move(sw));
    }
    for (std::uint32_t s = 0; s < _spec.spines; ++s) {
        if (PodFabricSpec::spineShard(s, _shards) != _shard)
            continue;
        auto sw = std::make_unique<Switch>(
            eventq(), name() + ".spine" + std::to_string(s),
            _spec.eth);
        _spineSw[s] = sw.get();
        _ownedSwitches.push_back(std::move(sw));
    }
}

void
PodFabricShard::buildLinks(ShardHost *host)
{
    // One half of a split pair: this shard transmits channel @p out
    // from @p sw into the far shard and pumps channel @p in into @p sw.
    auto halfLink = [&](Switch *sw, std::string link_name,
                        std::uint64_t out, std::uint64_t in) {
        auto ch = host->channel<PacketChannel>(out);
        auto link = std::make_unique<EthLink>(
            eventq(), std::move(link_name), _spec.eth);
        link->connectRemote(sw, ch.get());
        EthLink *half = link.get();
        _ownedLinks.push_back(std::move(link));
        _exports.push_back(std::move(ch));

        auto pump = host->channel<PacketChannel>(in);
        pump->setTarget(sw);
        host->addIngress(in, pump.get());
        _imports.push_back(std::move(pump));
        return half;
    };
    for (std::uint32_t l = 0; l < _spec.totalLeaves(); ++l) {
        std::uint32_t pod = l / _spec.leavesPerPod;
        bool leaf_local =
            PodFabricSpec::podShard(pod, _shards) == _shard;
        for (std::uint32_t s = 0; s < _spec.spines; ++s) {
            bool spine_local =
                PodFabricSpec::spineShard(s, _shards) == _shard;
            std::size_t i = std::size_t(l) * _spec.spines + s;
            std::string ls = std::to_string(l) + "_" + std::to_string(s);
            if (leaf_local && spine_local) {
                // Both ends here: one ordinary full-duplex link. Any
                // transition changes which spines can complete a
                // leaf-to-leaf path, so it re-runs the route install
                // (the withdrawal / re-advertisement a routing
                // protocol would run). Registered before any switch
                // port listens on the link; the new state is already
                // set when listeners fire.
                auto link = std::make_unique<EthLink>(
                    eventq(), name() + ".up" + ls, _spec.eth);
                link->connect(_leafSw[l], _spineSw[s]);
                link->addStateListener(
                    [this](EthLink &, bool) { installRoutes(); });
                _up[i] = _down[i] = link.get();
                _ownedLinks.push_back(std::move(link));
            } else if (leaf_local) {
                // We transmit the up direction into the spine's
                // shard, and pump the down direction out of it.
                _up[i] = halfLink(_leafSw[l], name() + ".up" + ls,
                                  chanKey(l, s, 0), chanKey(l, s, 1));
            } else if (spine_local) {
                _down[i] = halfLink(_spineSw[s], name() + ".down" + ls,
                                    chanKey(l, s, 1), chanKey(l, s, 0));
            }
        }
    }
}

void
PodFabricShard::installRoutes()
{
    // Every route for every node in the spec — node ids are
    // procedural, so no attachment gossip is needed.
    const std::uint32_t spines = _spec.spines;
    std::vector<EthLink *> members;
    members.reserve(spines);
    for (std::uint32_t l = 0; l < _spec.totalLeaves(); ++l) {
        if (!_leafSw[l])
            continue;
        for (std::uint32_t d = 0; d < _spec.totalLeaves(); ++d) {
            if (d == l)
                continue; // local delivery routes installed by attach()
            // ECMP members in spine order, keeping a spine only while
            // its leg down to leaf d is up, so no leaf hashes flows
            // onto a spine that lost its path. The near leg's own
            // state is left to the switch's live-set tracking: a local
            // link death fails over at the notification. A leg this
            // shard does not own is a static half-link: always up.
            members.clear();
            for (std::uint32_t s = 0; s < spines; ++s) {
                const EthLink *leg = _down[std::size_t(d) * spines + s];
                if (!leg || leg->up())
                    members.push_back(_up[std::size_t(l) * spines + s]);
            }
            std::uint32_t first = d * _spec.nodesPerLeaf;
            for (std::uint32_t n = first; n < first + _spec.nodesPerLeaf;
                 ++n)
                _leafSw[l]->addEcmpRoute(n, members);
        }
    }
    for (std::uint32_t s = 0; s < spines; ++s) {
        if (!_spineSw[s])
            continue;
        for (std::uint32_t n = 0; n < _spec.totalNodes(); ++n) {
            std::uint32_t l = _spec.leafOf(n);
            _spineSw[s]->addRoute(n,
                                  _down[std::size_t(l) * spines + s]);
        }
    }
}

EthLink &
PodFabricShard::attach(std::uint32_t node_id, NetEndpoint *ep)
{
    ND_ASSERT(ep);
    ND_ASSERT(node_id < _spec.totalNodes());
    ND_ASSERT(ownsNode(node_id));
    std::uint32_t l = _spec.leafOf(node_id);
    auto link = std::make_unique<EthLink>(
        eventq(), name() + ".access" + std::to_string(node_id),
        _spec.eth);
    link->connect(_leafSw[l], ep);
    EthLink *access = link.get();
    _access.push_back(std::move(link));
    _leafSw[l]->addRoute(node_id, access);
    return *access;
}

Switch &
PodFabricShard::leaf(std::uint32_t l)
{
    ND_ASSERT(l < _leafSw.size() && _leafSw[l]);
    return *_leafSw[l];
}

Switch &
PodFabricShard::spine(std::uint32_t s)
{
    ND_ASSERT(s < _spineSw.size() && _spineSw[s]);
    return *_spineSw[s];
}

std::uint64_t
PodFabricShard::fabricFrames() const
{
    std::uint64_t total = 0;
    for (const auto &sw : _ownedSwitches)
        total += sw->framesForwarded();
    return total;
}

std::uint64_t
PodFabricShard::framesExported() const
{
    std::uint64_t total = 0;
    for (const auto &ch : _exports)
        total += ch->framesPushed();
    return total;
}

// -- failure injection and health (one-shard fabric only) --------------------

void
PodFabricShard::requireOneShard(const char *what) const
{
    if (_shards != 1)
        panic("%s: %s needs a one-shard fabric (this one has %u "
              "shards)",
              name().c_str(), what, _shards);
}

EthLink &
PodFabricShard::uplink(std::uint32_t l, std::uint32_t s)
{
    requireOneShard("uplink");
    ND_ASSERT(l < _spec.totalLeaves() && s < _spec.spines);
    return *_up[std::size_t(l) * _spec.spines + s];
}

void
PodFabricShard::failSpine(std::uint32_t s)
{
    for (std::uint32_t l = 0; l < _spec.totalLeaves(); ++l)
        failLink(l, s);
}

void
PodFabricShard::recoverSpine(std::uint32_t s)
{
    for (std::uint32_t l = 0; l < _spec.totalLeaves(); ++l)
        recoverLink(l, s);
}

void
PodFabricShard::attachFaultDomains(FaultRegistry &reg)
{
    requireOneShard("attachFaultDomains");
    for (EthLink *link : _up)
        link->setFaultDomain(&reg.domain(link->name()));
}

FabricHealth
PodFabricShard::health() const
{
    requireOneShard("health");
    FabricHealth h;
    for (const EthLink *link : _up) {
        ++h.totalUplinks;
        if (link->up())
            ++h.liveUplinks;
    }
    h.bisectionGbps = double(h.liveUplinks) * _spec.eth.gbps;
    // Degradation is judged at the leaves, where traffic enters the
    // fabric: a leaf group with no usable path means an unreachable
    // destination. A spine's own dead single-member group is not
    // counted -- route withdrawal already steers traffic around it.
    for (const Switch *sw : _leafSw) {
        h.degradedGroups += sw->degradedGroups();
        h.totalGroups += sw->totalGroups();
    }
    return h;
}

bool
PodFabricShard::degraded() const
{
    requireOneShard("degraded");
    for (const Switch *sw : _leafSw)
        if (sw->degraded())
            return true;
    return false;
}

std::uint64_t
PodFabricShard::dropsNoPath() const
{
    requireOneShard("dropsNoPath");
    std::uint64_t total = 0;
    for (const auto &sw : _ownedSwitches)
        total += sw->dropsNoPath();
    return total;
}

std::uint64_t
PodFabricShard::dropsLinkDown() const
{
    requireOneShard("dropsLinkDown");
    std::uint64_t total = 0;
    for (const auto &sw : _ownedSwitches)
        total += sw->dropsLinkDown();
    for (const auto &link : _ownedLinks)
        total += link->framesDroppedLinkDown();
    return total;
}

} // namespace netdimm
