#include "workload/ShardMap.hh"

#include <algorithm>

#include "sim/Logging.hh"

namespace netdimm
{

namespace
{

/** splitmix64 finalizer: the same cheap full-avalanche mix the
 *  handler KV kernel uses for bucket addressing. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

ShardMap::ShardMap(std::vector<std::uint32_t> nodes,
                   std::uint32_t points_per_node)
    : _nodes(std::move(nodes))
{
    ND_ASSERT(points_per_node >= 1);
    std::sort(_nodes.begin(), _nodes.end());
    _nodes.erase(std::unique(_nodes.begin(), _nodes.end()),
                 _nodes.end());
    _ring.reserve(std::size_t(_nodes.size()) * points_per_node);
    for (std::uint32_t n : _nodes) {
        for (std::uint32_t v = 0; v < points_per_node; ++v) {
            // Point position is a pure function of (node, vnode
            // index), never of the rest of the membership.
            std::uint64_t h =
                mix64((std::uint64_t(n) << 32) | v);
            _ring.push_back({h, n});
        }
    }
    std::sort(_ring.begin(), _ring.end(),
              [](const Point &a, const Point &b) {
                  return a.hash != b.hash ? a.hash < b.hash
                                          : a.node < b.node;
              });
}

void
ShardMap::replicas(std::uint64_t key, std::uint32_t r,
                   std::vector<std::uint32_t> &out) const
{
    ND_ASSERT(!_ring.empty());
    out.clear();
    std::uint32_t want =
        std::min<std::uint32_t>(r, std::uint32_t(_nodes.size()));
    if (want == 0)
        return;
    std::uint64_t h = mix64(key);
    auto it = std::lower_bound(
        _ring.begin(), _ring.end(), h,
        [](const Point &p, std::uint64_t v) { return p.hash < v; });
    std::size_t start =
        it == _ring.end() ? 0 : std::size_t(it - _ring.begin());
    for (std::size_t i = 0; i < _ring.size() && out.size() < want;
         ++i) {
        std::uint32_t n = _ring[(start + i) % _ring.size()].node;
        if (std::find(out.begin(), out.end(), n) == out.end())
            out.push_back(n);
    }
}

} // namespace netdimm
