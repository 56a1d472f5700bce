/**
 * @file
 * Unit tests for allocCache (Sec. 4.2.2): prefill sizing (32K pages
 * for the two-rank reference NetDIMM), O(1) same-sub-array hits,
 * exhaustion fallback, background refill, and a digest of the pages
 * a seeded take/release/refill stream is handed.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "kernel/AllocCache.hh"
#include "sim/Random.hh"

using namespace netdimm;

namespace
{
DramGeometry
localGeo()
{
    DramGeometry g;
    g.channels = 1;
    g.ranksPerChannel = 2;
    return g;
}

constexpr Addr regionBase = 1ull << 32;

struct Fixture
{
    EventQueue eq;
    NetdimmZoneAllocator zone;
    AllocCache cache;

    explicit Fixture(std::uint32_t per_sa = 2)
        : zone(regionBase, localGeo()),
          cache(eq, "ac", zone, per_sa)
    {}
};
} // namespace

TEST(AllocCache, PrefillMatchesPaper)
{
    Fixture f;
    // 2 ranks x 8K sub-arrays x 2 pages = 32K pages = 128MB.
    EXPECT_EQ(f.cache.cachedPages(), 32u * 1024u);
}

TEST(AllocCache, HintedTakeIsFastAndSameSubArray)
{
    Fixture f;
    bool fast = false;
    Addr hint = f.cache.takeAny(fast);
    ASSERT_TRUE(fast);
    Addr page = f.cache.take(hint, fast);
    EXPECT_TRUE(fast);
    EXPECT_TRUE(f.zone.sameSubArray(hint, page));
    EXPECT_EQ(f.cache.fastHits(), 2u);
}

TEST(AllocCache, ExhaustedSubArrayFallsBackSlow)
{
    Fixture f;
    bool fast = false;
    Addr hint = f.cache.takeAny(fast);
    // Drain the remaining cached page of that sub-array.
    f.cache.take(hint, fast);
    ASSERT_TRUE(fast);
    // Third take from the same sub-array misses the cache.
    f.cache.take(hint, fast);
    EXPECT_FALSE(fast);
    EXPECT_EQ(f.cache.slowAllocs(), 1u);
}

TEST(AllocCache, BackgroundRefillReplenishes)
{
    Fixture f;
    bool fast = false;
    Addr hint = f.cache.takeAny(fast);
    f.cache.take(hint, fast);
    std::uint64_t after_takes = f.cache.cachedPages();
    // Let the background refill run.
    f.eq.run();
    EXPECT_GT(f.cache.cachedPages(), after_takes);
}

TEST(AllocCache, ReleaseReturnsToCacheUpToCap)
{
    Fixture f;
    bool fast = false;
    Addr p = f.cache.takeAny(fast);
    std::uint64_t n = f.cache.cachedPages();
    f.cache.release(p);
    EXPECT_EQ(f.cache.cachedPages(), n + 1);
    // Releasing beyond the per-sub-array cap frees to the zone.
    std::uint64_t zone_free = f.zone.freePages();
    Addr q = f.zone.allocPage(p);
    f.cache.release(q); // cache already holds 2 for this sub-array
    EXPECT_EQ(f.cache.cachedPages(), n + 1);
    EXPECT_EQ(f.zone.freePages(), zone_free);
}

TEST(AllocCache, TakeAnyDistributes)
{
    Fixture f;
    bool fast = false;
    Addr a = f.cache.takeAny(fast);
    Addr b = f.cache.takeAny(fast);
    EXPECT_NE(a, b);
    EXPECT_FALSE(f.zone.sameSubArray(a, b));
}

TEST(AllocCache, ManyTakesAllSucceed)
{
    Fixture f;
    std::set<Addr> seen;
    bool fast = false;
    for (int i = 0; i < 5000; ++i) {
        Addr p = f.cache.takeAny(fast);
        EXPECT_TRUE(seen.insert(p).second);
    }
}

TEST(AllocCache, HandOutSequenceIsPinned)
{
    // Every page the zone allocator and allocCache hand out, in order,
    // with its fast flag, under a seeded stream of hinted and
    // hint-less takes, releases and background refills, is pinned to
    // a recorded FNV-1a digest: a change to how either allocator
    // keeps its state must hand out the same pages in the same order.
    Fixture f;
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::uint64_t handed = 0;
    std::vector<Addr> held;
    auto note = [&](Addr page, bool fast) {
        for (std::uint64_t v : {std::uint64_t(page), std::uint64_t(fast)})
            for (int i = 0; i < 8; ++i) {
                hash ^= (v >> (8 * i)) & 0xff;
                hash *= 0x100000001b3ull;
            }
        ++handed;
        held.push_back(page);
    };

    // Drain the prefilled cache hint-less. The prefill's round-robin
    // allocPage calls leave every sub-array exactly its first two
    // page slots.
    const DimmDecoder &dec = f.zone.decoder();
    const std::uint32_t rowsPerPage = pageBytes / dec.geometry().rowBytes;
    std::vector<std::set<std::uint32_t>> slots(f.zone.totalSubArrays());
    bool fast = false;
    for (std::uint32_t i = 0; i < 2 * f.zone.totalSubArrays(); ++i) {
        Addr page = f.cache.takeAny(fast);
        ASSERT_TRUE(fast);
        note(page, fast);
        DramAddress da = dec.decode(page - regionBase);
        std::uint32_t sa = da.rank * dec.subArraysPerRank() +
                           da.subArray * dec.geometry().banksPerDevice +
                           da.bank;
        slots[sa].insert(da.row / rowsPerPage);
    }
    for (const auto &s : slots)
        ASSERT_EQ(s, (std::set<std::uint32_t>{0, 1}));
    EXPECT_EQ(f.cache.cachedPages(), 0u);

    // The drained pool sends both take kinds down the slow path.
    note(f.cache.takeAny(fast), fast);
    EXPECT_FALSE(fast);
    note(f.cache.take(held[7], fast), fast);
    EXPECT_FALSE(fast);
    f.eq.run();

    // Seeded batches; the refills each batch queues fire between them.
    Random rng(31);
    for (int batch = 0; batch < 40; ++batch) {
        for (int op = 0; op < 400; ++op) {
            std::uint64_t r = rng.uniformInt(0, 9);
            if (r < 3) {
                Addr hint = held[rng.uniformInt(0, held.size() - 1)];
                note(f.cache.take(hint, fast), fast);
            } else if (r < 4) {
                // Drain one hinted sub-array past its cached pages.
                Addr hint = held[rng.uniformInt(0, held.size() - 1)];
                for (int i = 0; i < 3; ++i)
                    note(f.cache.take(hint, fast), fast);
            } else if (r < 6) {
                note(f.cache.takeAny(fast), fast);
            } else {
                std::size_t i = rng.uniformInt(0, held.size() - 1);
                f.cache.release(held[i]);
                held[i] = held.back();
                held.pop_back();
            }
        }
        f.eq.run();
    }

    EXPECT_EQ(handed, 45385u);
    EXPECT_EQ(hash, 0x875d7c9b6e398333ull);
    EXPECT_EQ(f.cache.cachedPages(), 26068u);
    EXPECT_EQ(f.zone.freePages(), 459332u);
    EXPECT_EQ(f.cache.fastHits(), 42798u);
    EXPECT_EQ(f.cache.slowAllocs(), 2587u);
}
