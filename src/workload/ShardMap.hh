/**
 * @file
 * Consistent-hash shard map for the replicated KV serving tier
 * (DESIGN.md §15).
 *
 * Each member node projects `points_per_node` virtual points onto a
 * 64-bit hash ring; a key is owned by the first point clockwise of its
 * own hash, and its R-way replica set is the first R *distinct* nodes
 * continuing clockwise. The classic properties follow:
 *
 *  - placement is a pure function of (membership, points per node,
 *    key): deterministic across runs, processes and sweep workers;
 *  - when one of N nodes leaves or rejoins, only ~K/N of K keys
 *    change primary — everything else keeps its owner;
 *  - a replica set never repeats a node and never exceeds the
 *    membership size.
 *
 * The serving workload keeps membership *fixed* across crashes (a
 * crashed node stays in the map so its shards come back to it after
 * resync); liveness is a routing-time filter, not a ring mutation.
 * add()/remove() exist for the remap-bound property tests and for
 * workloads that want true elastic membership.
 */

#ifndef NETDIMM_WORKLOAD_SHARDMAP_HH
#define NETDIMM_WORKLOAD_SHARDMAP_HH

#include <cstdint>
#include <vector>

namespace netdimm
{

class ShardMap
{
  public:
    ShardMap(std::vector<std::uint32_t> nodes,
             std::uint32_t points_per_node = 64);

    /** Member count (crashed-but-mapped nodes included). */
    std::uint32_t size() const
    {
        return std::uint32_t(_nodes.size());
    }
    const std::vector<std::uint32_t> &nodes() const { return _nodes; }

    /** Add @p node to the ring (no-op when already a member). */
    void add(std::uint32_t node);
    /** Remove @p node from the ring (no-op when not a member). */
    void remove(std::uint32_t node);

    /** The node owning @p key (first ring point clockwise). */
    std::uint32_t primary(std::uint64_t key) const;

    /**
     * The first @p r distinct nodes clockwise of @p key's hash —
     * element 0 is the primary. Clamped to size(); never contains a
     * duplicate.
     */
    std::vector<std::uint32_t> replicas(std::uint64_t key,
                                        std::uint32_t r) const;

    /** Allocation-free variant for per-request routing. */
    void replicas(std::uint64_t key, std::uint32_t r,
                  std::vector<std::uint32_t> &out) const;

  private:
    struct Point
    {
        std::uint64_t hash;
        std::uint32_t node;
    };

    std::vector<std::uint32_t> _nodes;
    std::uint32_t _pointsPerNode;
    std::vector<Point> _ring; ///< sorted by (hash, node)

    void rebuild();
};

} // namespace netdimm

#endif // NETDIMM_WORKLOAD_SHARDMAP_HH
