/**
 * @file
 * ShardMap unit tests: deterministic placement, distinct replica
 * sets, bounded remap on membership change, exact restore on rejoin.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "workload/ShardMap.hh"

using namespace netdimm;

namespace
{

std::vector<std::uint32_t>
ids(std::uint32_t n)
{
    std::vector<std::uint32_t> v;
    for (std::uint32_t i = 1; i <= n; ++i)
        v.push_back(i);
    return v;
}

} // namespace

TEST(ShardMap, DeterministicPlacement)
{
    ShardMap a(ids(5), 64);
    ShardMap b(ids(5), 64);
    for (std::uint64_t k = 1; k <= 4096; ++k) {
        EXPECT_EQ(a.primary(k), b.primary(k));
        EXPECT_EQ(a.replicas(k, 3), b.replicas(k, 3));
    }
}

TEST(ShardMap, ReplicaSetsAreDistinctAndLedByPrimary)
{
    ShardMap m(ids(5), 64);
    for (std::uint64_t k = 1; k <= 4096; ++k) {
        auto rs = m.replicas(k, 3);
        ASSERT_EQ(rs.size(), 3u);
        EXPECT_EQ(rs[0], m.primary(k));
        std::set<std::uint32_t> uniq(rs.begin(), rs.end());
        EXPECT_EQ(uniq.size(), rs.size()) << "dup replica, key " << k;
        for (std::uint32_t id : uniq) {
            EXPECT_GE(id, 1u);
            EXPECT_LE(id, 5u);
        }
    }
}

TEST(ShardMap, ReplicationClampsToMembership)
{
    ShardMap m(ids(2), 32);
    auto rs = m.replicas(7, 5);
    EXPECT_EQ(rs.size(), 2u);
    EXPECT_NE(rs[0], rs[1]);
}

TEST(ShardMap, AllNodesOwnSomeKeys)
{
    ShardMap m(ids(6), 64);
    std::map<std::uint32_t, std::uint64_t> owned;
    const std::uint64_t keys = 12000;
    for (std::uint64_t k = 1; k <= keys; ++k)
        ++owned[m.primary(k)];
    ASSERT_EQ(owned.size(), 6u) << "some node owns nothing";
    // Consistent hashing with enough virtual points keeps the split within a
    // loose factor of fair share: no node should be nearly empty or
    // hold most of the ring.
    for (const auto &[id, n] : owned) {
        EXPECT_GT(n, keys / 6 / 4) << "node " << id << " starved";
        EXPECT_LT(n, keys / 2) << "node " << id << " dominates";
    }
}

// The consistent-hashing point: removing one of N nodes remaps only
// the keys that node owned (~K/N), not the whole space.
TEST(ShardMap, LeaveRemapsOnlyTheLeaversShare)
{
    const std::uint32_t n = 8;
    const std::uint64_t keys = 16000;
    ShardMap full(ids(n), 64);
    ShardMap less(ids(n), 64);
    less.remove(3);

    std::uint64_t moved = 0;
    for (std::uint64_t k = 1; k <= keys; ++k) {
        std::uint32_t before = full.primary(k);
        std::uint32_t after = less.primary(k);
        EXPECT_NE(after, 3u);
        if (before != after) {
            // Only keys the leaver owned may move.
            EXPECT_EQ(before, 3u) << "key " << k << " moved away from"
                                  << " a surviving node";
            ++moved;
        }
    }
    // ~K/N expected; allow 2x for hash-split unevenness.
    EXPECT_LE(moved, 2 * keys / n);
    EXPECT_GT(moved, 0u);
}

TEST(ShardMap, RejoinRestoresPlacementExactly)
{
    ShardMap a(ids(5), 64);
    ShardMap b(ids(5), 64);
    b.remove(2);
    b.add(2);
    for (std::uint64_t k = 1; k <= 4096; ++k)
        EXPECT_EQ(a.replicas(k, 2), b.replicas(k, 2));
}

TEST(ShardMap, AllocFreeReplicasMatchesAllocating)
{
    ShardMap m(ids(5), 48);
    std::vector<std::uint32_t> out;
    for (std::uint64_t k = 1; k <= 2048; ++k) {
        m.replicas(k, 3, out);
        EXPECT_EQ(out, m.replicas(k, 3));
    }
}
