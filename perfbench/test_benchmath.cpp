/**
 * @file
 * Unit tests of the benchmark's own arithmetic (BenchMath.hh) and of
 * span self-time folding (Trace.hh).
 */

#include <gtest/gtest.h>

#include "BenchMath.hh"
#include "Trace.hh"

using namespace perfbench;

TEST(BenchMath, PercentileNeedsTenSamplesBeyond)
{
    EXPECT_TRUE(percentileSupported(0.99, 1000));
    EXPECT_FALSE(percentileSupported(0.99, 999));
    EXPECT_TRUE(percentileSupported(0.50, 20));
    EXPECT_FALSE(percentileSupported(0.50, 19));
    EXPECT_FALSE(percentileSupported(0.999, 5000));
}

TEST(BenchMath, Median)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(BenchMath, FastestPartsAcrossReps)
{
    std::vector<double> best;
    keepFastest(best, {1.0, 2.0, 3.0});
    keepFastest(best, {1.5, 1.0, 3.5});
    keepFastest(best, {0.5, 4.0, 2.5});
    EXPECT_EQ(best, (std::vector<double>{0.5, 1.0, 2.5}));
    EXPECT_DOUBLE_EQ(sumOf(best), 4.0);
    EXPECT_DOUBLE_EQ(sumOf({}), 0.0);
}

TEST(BenchMath, SloRateIsHighestQualifyingGridPoint)
{
    std::vector<GridPoint> grid = {
        {0.8, 5.0, 0}, {0.9, 12.0, 0}, {1.0, 19.9, 0}, {1.1, 250.0, 0}};
    EXPECT_DOUBLE_EQ(sloRate(grid, 20.0), 1.0);
    // A lossy point does not qualify even when its p99 is low.
    grid[2].lost = 3;
    EXPECT_DOUBLE_EQ(sloRate(grid, 20.0), 0.9);
    // Order does not matter; a boundary p99 qualifies.
    std::vector<GridPoint> rev = {{1.8, 20.0, 0}, {1.5, 4.0, 0}};
    EXPECT_DOUBLE_EQ(sloRate(rev, 20.0), 1.8);
    EXPECT_DOUBLE_EQ(sloRate({{1.0, 30.0, 0}}, 20.0), 0.0);
}

TEST(BenchMath, FailFraction)
{
    EXPECT_DOUBLE_EQ(failFraction(0, 100), 0.0);
    EXPECT_DOUBLE_EQ(failFraction(25, 100), 0.25);
    EXPECT_DOUBLE_EQ(failFraction(0, 0), 0.0);
}

TEST(BenchMath, ShardImbalance)
{
    EXPECT_DOUBLE_EQ(imbalance({100, 100, 100, 100}), 1.0);
    EXPECT_DOUBLE_EQ(imbalance({200, 100, 50, 50}), 2.0);
    EXPECT_DOUBLE_EQ(imbalance({}), 0.0);
    EXPECT_DOUBLE_EQ(imbalance({0, 0}), 0.0);
}

TEST(BenchMath, SelfTimeSubtractsUnionOfChildren)
{
    // No children: the whole span.
    EXPECT_EQ(selfTime({0, 100}, {}), 100);
    // Disjoint children.
    EXPECT_EQ(selfTime({0, 100}, {{10, 20}, {50, 70}}), 70);
    // Overlapping children (concurrent shards) count once.
    EXPECT_EQ(selfTime({0, 100}, {{10, 60}, {40, 80}, {45, 50}}), 30);
    // Children are clipped to the parent.
    EXPECT_EQ(selfTime({0, 100}, {{-20, 10}, {90, 150}}), 80);
    // Touching intervals merge.
    EXPECT_EQ(selfTime({0, 100}, {{0, 50}, {50, 100}}), 0);
}

TEST(Trace, FoldAttributesSelfTimeToLayers)
{
    Tracer t;
    {
        ScopedSpan outer(&t, "outer", Layer::Sim);
        ScopedSpan inner(&t, "inner", Layer::Net, 7);
        EXPECT_EQ(Tracer::current(), inner.index());
    }
    EXPECT_EQ(Tracer::current(), -1);
    EXPECT_EQ(t.recorded(), 2u);
    LayerSeconds self{};
    t.fold(self);
    EXPECT_GE(self[std::size_t(Layer::Sim)], 0.0);
    EXPECT_GE(self[std::size_t(Layer::Net)], 0.0);
    EXPECT_EQ(self[std::size_t(Layer::Kernel)], 0.0);

    // Null tracer: spans are free and record nothing.
    ScopedSpan none(nullptr, "x", Layer::Sim);
    EXPECT_EQ(none.index(), -1);
}
