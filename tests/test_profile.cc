/**
 * @file
 * Tests for RetentionProfile set semantics and metric scoring.
 */

#include <gtest/gtest.h>

#include "profiling/profile.h"

namespace reaper {
namespace profiling {
namespace {

using dram::ChipFailure;

TEST(RetentionProfile, StartsEmpty)
{
    RetentionProfile p;
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.size(), 0u);
}

TEST(RetentionProfile, AddDeduplicatesAndSorts)
{
    RetentionProfile p;
    p.add({{1, 10}, {0, 5}, {1, 10}, {0, 2}});
    EXPECT_EQ(p.size(), 3u);
    EXPECT_EQ(p.cells()[0], (ChipFailure{0, 2}));
    EXPECT_EQ(p.cells()[1], (ChipFailure{0, 5}));
    EXPECT_EQ(p.cells()[2], (ChipFailure{1, 10}));
    // Sorted input skips the sort; a repeated cell must still collapse.
    RetentionProfile sorted;
    sorted.add({{0, 2}, {0, 5}, {0, 5}, {1, 10}});
    EXPECT_EQ(sorted.cells(), p.cells());
}

TEST(RetentionProfile, AddAccumulatesAcrossCalls)
{
    RetentionProfile p;
    p.add({{0, 1}});
    p.add({{0, 2}, {0, 1}});
    EXPECT_EQ(p.size(), 2u);
    p.add({{0, 0}, {0, 2}, {1, 0}}); // sorted and unique, as a read is
    EXPECT_EQ(p.cells(), (std::vector<ChipFailure>{
                             {0, 0}, {0, 1}, {0, 2}, {1, 0}}));
}

TEST(RetentionProfile, AddEmptyIsNoop)
{
    RetentionProfile p;
    p.add({{0, 1}});
    p.add({});
    EXPECT_EQ(p.size(), 1u);
}

TEST(RetentionProfile, ContainsBinarySearch)
{
    RetentionProfile p;
    p.add({{0, 1}, {2, 7}, {5, 3}});
    EXPECT_TRUE(p.contains({2, 7}));
    EXPECT_FALSE(p.contains({2, 8}));
    EXPECT_FALSE(p.contains({3, 7}));
}

TEST(RetentionProfile, MergeUnions)
{
    RetentionProfile a, b;
    a.add({{0, 1}, {0, 2}});
    b.add({{0, 2}, {0, 3}});
    a.merge(b);
    EXPECT_EQ(a.size(), 3u);
}

TEST(RetentionProfile, IntersectionSize)
{
    RetentionProfile p;
    p.add({{0, 1}, {0, 3}, {0, 5}, {1, 1}});
    std::vector<ChipFailure> other = {{0, 2}, {0, 3}, {1, 1}, {1, 2}};
    EXPECT_EQ(p.intersectionSize(other), 2u);
    EXPECT_EQ(p.intersectionSize({}), 0u);
}

TEST(RetentionProfile, ConditionsRoundTrip)
{
    Conditions c{1.024, 45.0};
    RetentionProfile p(c);
    EXPECT_DOUBLE_EQ(p.conditions().refreshInterval, 1.024);
    EXPECT_DOUBLE_EQ(p.conditions().temperature, 45.0);
    p.setConditions({2.048, 55.0});
    EXPECT_DOUBLE_EQ(p.conditions().refreshInterval, 2.048);
}

TEST(ScoreProfile, PerfectProfile)
{
    RetentionProfile p;
    p.add({{0, 1}, {0, 2}});
    std::vector<ChipFailure> truth = {{0, 1}, {0, 2}};
    ProfileMetrics m = scoreProfile(p, truth, 10.0);
    EXPECT_DOUBLE_EQ(m.coverage, 1.0);
    EXPECT_DOUBLE_EQ(m.falsePositiveRate, 0.0);
    EXPECT_DOUBLE_EQ(m.runtime, 10.0);
    EXPECT_EQ(m.truePositives, 2u);
    EXPECT_EQ(m.falsePositives, 0u);
}

TEST(ScoreProfile, PartialCoverageWithFalsePositives)
{
    RetentionProfile p;
    p.add({{0, 1}, {0, 9}, {0, 8}}); // one true, two false
    std::vector<ChipFailure> truth = {{0, 1}, {0, 2}};
    ProfileMetrics m = scoreProfile(p, truth, 1.0);
    EXPECT_DOUBLE_EQ(m.coverage, 0.5);
    EXPECT_NEAR(m.falsePositiveRate, 2.0 / 3.0, 1e-12);
    EXPECT_EQ(m.truthSize, 2u);
    EXPECT_EQ(m.discovered, 3u);
}

TEST(ScoreProfile, EmptyTruthIsFullCoverage)
{
    RetentionProfile p;
    ProfileMetrics m = scoreProfile(p, {}, 0.0);
    EXPECT_DOUBLE_EQ(m.coverage, 1.0);
    EXPECT_DOUBLE_EQ(m.falsePositiveRate, 0.0);
}

TEST(ScoreProfile, EmptyProfileZeroCoverage)
{
    RetentionProfile p;
    std::vector<ChipFailure> truth = {{0, 1}};
    ProfileMetrics m = scoreProfile(p, truth, 0.0);
    EXPECT_DOUBLE_EQ(m.coverage, 0.0);
    EXPECT_DOUBLE_EQ(m.falsePositiveRate, 0.0);
}

} // namespace
} // namespace profiling
} // namespace reaper
