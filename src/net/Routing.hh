/**
 * @file
 * Shared destination-node routing machinery for the switch models.
 *
 * Both the store-and-forward Switch (egress = index of an ECMP group)
 * and the analytic ClosFabric boundary router (egress = NetEndpoint) keep a
 * destination-node table with an optional default route and count
 * frames that match nothing as dropsNoRoute. RouteTable owns that
 * logic once so the two cannot drift.
 *
 * The ECMP flow hash also lives here: a pure function of the packet's
 * (src, dst, flow) fields with no RNG draw, so per-packet multipath
 * selection never perturbs a deterministic replay.
 */

#ifndef NETDIMM_NET_ROUTING_HH
#define NETDIMM_NET_ROUTING_HH

#include <cstdint>
#include <vector>

#include "sim/Stats.hh"

namespace netdimm
{

/**
 * Deterministic ECMP hash over the fields that identify a flow. All
 * packets of one (src, dst, flow) triple hash identically, keeping a
 * flow on one path (no intra-flow reorder while the path set is
 * stable); distinct flows spread across members. splitmix64-style
 * finalizer for avalanche.
 */
inline std::uint64_t
ecmpFlowHash(std::uint32_t src, std::uint32_t dst, std::uint64_t flow)
{
    std::uint64_t x = (std::uint64_t(src) << 32) ^ dst;
    x ^= flow * 0x9e3779b97f4a7c15ull;
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Destination-node route table: node id -> egress, with an optional
 * default egress and a dropsNoRoute counter the owner increments via
 * noteNoRoute() when a resolve() miss makes it drop the frame.
 *
 * Node ids are small and dense (procedural fabric ids, endpoint
 * indices), so the table is a vector indexed by node id with a
 * presence flag per slot: resolve() is one bounds check and one load
 * on the per-frame path, and forEach() visits routes in ascending
 * node order.
 */
template <typename Egress>
class RouteTable
{
  public:
    /** Route @p node_id to @p egress, replacing any earlier route. */
    void
    add(std::uint32_t node_id, Egress egress)
    {
        if (node_id >= _slots.size())
            _slots.resize(std::size_t(node_id) + 1);
        Slot &s = _slots[node_id];
        if (!s.present)
            ++_size;
        s.egress = std::move(egress);
        s.present = true;
    }

    void
    setDefault(Egress egress)
    {
        _default.egress = std::move(egress);
        _default.present = true;
    }

    /** @return the egress for @p node_id (or the default), or null. */
    Egress *
    resolve(std::uint32_t node_id)
    {
        if (node_id < _slots.size() && _slots[node_id].present)
            return &_slots[node_id].egress;
        return _default.present ? &_default.egress : nullptr;
    }

    /** Count one frame dropped for lack of any route. */
    void noteNoRoute() { _dropsNoRoute.inc(); }

    std::uint64_t dropsNoRoute() const
    {
        return _dropsNoRoute.value();
    }

    /** Installed explicit routes (excluding the default). */
    std::size_t size() const { return _size; }

    /** Call @p fn(node_id, egress) per explicit route, ascending. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t n = 0; n < _slots.size(); ++n)
            if (_slots[n].present)
                fn(std::uint32_t(n), _slots[n].egress);
    }

    bool hasDefault() const { return _default.present; }
    const Egress &defaultEgress() const { return _default.egress; }

  private:
    struct Slot
    {
        Egress egress{};
        bool present = false;
    };

    std::vector<Slot> _slots;
    std::size_t _size = 0;
    Slot _default;
    stats::Scalar _dropsNoRoute;
};

} // namespace netdimm

#endif // NETDIMM_NET_ROUTING_HH
