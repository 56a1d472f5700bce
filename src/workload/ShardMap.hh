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
 *  - a replica set never repeats a node and never exceeds the
 *    membership size.
 *
 * Membership is fixed for the map's lifetime: a crashed node stays in
 * the map so its shards come back to it after resync; liveness is a
 * routing-time filter, not a ring mutation.
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
             std::uint32_t points_per_node);

    /**
     * The first @p r distinct nodes clockwise of @p key's hash, into
     * @p out (cleared first); element 0 is the primary. Clamped to the
     * member count; never contains a duplicate. Allocation-free once
     * @p out has grown, so it serves per-request routing.
     */
    void replicas(std::uint64_t key, std::uint32_t r,
                  std::vector<std::uint32_t> &out) const;

  private:
    struct Point
    {
        std::uint64_t hash;
        std::uint32_t node;
    };

    std::vector<std::uint32_t> _nodes;
    std::vector<Point> _ring; ///< sorted by (hash, node)
};

} // namespace netdimm

#endif // NETDIMM_WORKLOAD_SHARDMAP_HH
