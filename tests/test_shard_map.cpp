/**
 * @file
 * ShardMap unit tests: deterministic placement, distinct replica
 * sets led by the primary, clamping to membership, and a fair-ish
 * spread of primaries.
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

std::vector<std::uint32_t>
replicasOf(const ShardMap &m, std::uint64_t key, std::uint32_t r)
{
    std::vector<std::uint32_t> out;
    m.replicas(key, r, out);
    return out;
}

} // namespace

TEST(ShardMap, DeterministicPlacement)
{
    ShardMap a(ids(5), 64);
    ShardMap b(ids(5), 64);
    for (std::uint64_t k = 1; k <= 4096; ++k)
        EXPECT_EQ(replicasOf(a, k, 3), replicasOf(b, k, 3));
}

TEST(ShardMap, ReplicaSetsAreDistinctAndLedByPrimary)
{
    ShardMap m(ids(5), 64);
    for (std::uint64_t k = 1; k <= 4096; ++k) {
        auto rs = replicasOf(m, k, 3);
        ASSERT_EQ(rs.size(), 3u);
        EXPECT_EQ(rs[0], replicasOf(m, k, 1).at(0));
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
    auto rs = replicasOf(m, 7, 5);
    EXPECT_EQ(rs.size(), 2u);
    EXPECT_NE(rs[0], rs[1]);
}

TEST(ShardMap, AllNodesOwnSomeKeys)
{
    ShardMap m(ids(6), 64);
    std::map<std::uint32_t, std::uint64_t> owned;
    const std::uint64_t keys = 12000;
    for (std::uint64_t k = 1; k <= keys; ++k)
        ++owned[replicasOf(m, k, 1).at(0)];
    ASSERT_EQ(owned.size(), 6u) << "some node owns nothing";
    // Consistent hashing with enough virtual points keeps the split within a
    // loose factor of fair share: no node should be nearly empty or
    // hold most of the ring.
    for (const auto &[id, n] : owned) {
        EXPECT_GT(n, keys / 6 / 4) << "node " << id << " starved";
        EXPECT_LT(n, keys / 2) << "node " << id << " dominates";
    }
}

// Routing reuses one scratch vector across requests: whatever the
// vector held before, the call must clear it and produce exactly what
// a fresh vector gets.
TEST(ShardMap, AllocFreeReplicasMatchesAllocating)
{
    ShardMap m(ids(5), 48);
    std::vector<std::uint32_t> out = {99, 98, 97, 96};
    for (std::uint64_t k = 1; k <= 2048; ++k) {
        m.replicas(k, 1 + std::uint32_t(k % 3), out);
        EXPECT_EQ(out, replicasOf(m, k, 1 + std::uint32_t(k % 3)));
    }
}
