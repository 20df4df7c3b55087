/**
 * @file
 * Tests for the mitigation mechanisms REAPER enables: ArchShield-like
 * FaultMap remapping and RAIDR-like multi-rate refresh.
 */

#include <gtest/gtest.h>

#include "mitigation/archshield.h"
#include "mitigation/raidr.h"

namespace reaper {
namespace mitigation {
namespace {

using dram::ChipFailure;
using profiling::RetentionProfile;

constexpr uint64_t kRowBits = 2048ull * 8;

RetentionProfile
profileOf(std::vector<ChipFailure> cells)
{
    RetentionProfile p;
    p.add(cells);
    return p;
}

// ---------------- ArchShield ----------------

TEST(ArchShield, CoversProfiledCells)
{
    ArchShieldConfig cfg;
    ArchShield shield(cfg);
    shield.applyProfile(profileOf({{0, 100}, {1, 5000}}));
    EXPECT_TRUE(shield.covers({0, 100}));
    EXPECT_TRUE(shield.covers({1, 5000}));
    EXPECT_FALSE(shield.covers({0, 999999}));
    EXPECT_FALSE(shield.overflowed());
}

TEST(ArchShield, WordGranularityCoverage)
{
    ArchShieldConfig cfg;
    cfg.wordBits = 64;
    ArchShield shield(cfg);
    shield.applyProfile(profileOf({{0, 128}}));
    // Any cell in the same 64-bit word is covered by the replica.
    EXPECT_TRUE(shield.covers({0, 130}));
    EXPECT_FALSE(shield.covers({0, 192}));
}

TEST(ArchShield, FaultMapCapacity)
{
    ArchShieldConfig cfg;
    cfg.capacityBits = 1024ull * 1024; // 128 KB toy DRAM
    cfg.faultMapFraction = 0.04;
    cfg.entryBits = 160;
    ArchShield shield(cfg);
    EXPECT_EQ(shield.faultMapCapacityEntries(),
              static_cast<uint64_t>(1024.0 * 1024 * 0.04 / 160));
}

TEST(ArchShield, OverflowOnExcessiveProfile)
{
    ArchShieldConfig cfg;
    cfg.capacityBits = 1024ull * 1024;
    cfg.faultMapFraction = 0.04;
    ArchShield shield(cfg);
    uint64_t capacity = shield.faultMapCapacityEntries();
    std::vector<ChipFailure> cells;
    for (uint64_t i = 0; i <= capacity; ++i)
        cells.push_back({0, i * 64});
    shield.applyProfile(profileOf(cells));
    EXPECT_TRUE(shield.overflowed());
}

TEST(ArchShield, ReapplyReplacesProfile)
{
    ArchShield shield(ArchShieldConfig{});
    shield.applyProfile(profileOf({{0, 64}}));
    shield.applyProfile(profileOf({{0, 128}}));
    EXPECT_FALSE(shield.covers({0, 64}));
    EXPECT_TRUE(shield.covers({0, 128}));
}

TEST(ArchShield, StatsReportOverheadAndRows)
{
    ArchShield shield(ArchShieldConfig{});
    shield.applyProfile(profileOf({{0, 0}, {0, 64}, {0, kRowBits}}));
    MitigationStats s = shield.stats();
    EXPECT_EQ(s.protectedCells, 3u);
    EXPECT_EQ(s.protectedRows, 2u);
    EXPECT_DOUBLE_EQ(s.capacityOverhead, 0.04);
}

// ---------------- RAIDR ----------------

RaidrConfig
raidrConfig(uint64_t rows = 1000)
{
    RaidrConfig cfg;
    cfg.totalRows = rows;
    return cfg;
}

TEST(Raidr, DefaultAllRowsInSlowBin)
{
    Raidr raidr(raidrConfig());
    auto bins = raidr.bins();
    ASSERT_EQ(bins.size(), 3u);
    EXPECT_EQ(bins.back().rowCount, 1000u);
    EXPECT_EQ(bins.front().rowCount, 0u);
    // All rows at 1024 ms vs 64 ms: 16x fewer refreshes.
    EXPECT_NEAR(raidr.refreshWorkRelative(), 0.064 / 1.024, 1e-9);
}

TEST(Raidr, ProfiledRowsDemotedToFastBin)
{
    Raidr raidr(raidrConfig());
    raidr.applyProfile(profileOf({{0, 10}, {0, kRowBits * 5 + 3}}));
    auto bins = raidr.bins();
    EXPECT_EQ(bins[0].rowCount, 2u);
    EXPECT_EQ(bins[2].rowCount, 998u);
    EXPECT_TRUE(raidr.covers({0, 11}));       // same row as 10
    EXPECT_FALSE(raidr.covers({0, kRowBits})); // different row
    EXPECT_DOUBLE_EQ(raidr.rowInterval(0, 0), 0.064);
    EXPECT_DOUBLE_EQ(raidr.rowInterval(0, 1), 1.024);
}

TEST(Raidr, RefreshWorkIncreasesWithDemotions)
{
    Raidr raidr(raidrConfig());
    double before = raidr.refreshWorkRelative();
    raidr.applyProfile(profileOf({{0, 0}}));
    EXPECT_GT(raidr.refreshWorkRelative(), before);
    EXPECT_LT(raidr.refreshWorkRelative(), 1.0); // still beats default
}

TEST(Raidr, BinnedProfilesAssignFastestNeeded)
{
    RaidrConfig cfg = raidrConfig();
    cfg.binIntervals = {0.064, 0.256, 1.024};
    Raidr raidr(cfg);
    // Row 0 fails at 256 ms (needs 64 ms bin); row 1 fails only at
    // 1024 ms (needs 256 ms bin).
    RetentionProfile at_256 = profileOf({{0, 0}});
    RetentionProfile at_1024 = profileOf({{0, 0}, {0, kRowBits}});
    raidr.applyBinnedProfiles({at_256, at_1024});
    EXPECT_DOUBLE_EQ(raidr.rowInterval(0, 0), 0.064);
    EXPECT_DOUBLE_EQ(raidr.rowInterval(0, 1), 0.256);
    EXPECT_DOUBLE_EQ(raidr.rowInterval(0, 2), 1.024);
}

TEST(Raidr, BinnedProfilesCountValidation)
{
    Raidr raidr(raidrConfig());
    EXPECT_DEATH(raidr.applyBinnedProfiles({}), "expected");
}

TEST(Raidr, ConfigValidation)
{
    RaidrConfig cfg;
    cfg.totalRows = 0;
    EXPECT_DEATH(Raidr r(cfg), "totalRows");
    cfg.totalRows = 10;
    cfg.binIntervals = {0.064};
    EXPECT_DEATH(Raidr r(cfg), "two bins");
    cfg.binIntervals = {1.0, 0.5};
    EXPECT_DEATH(Raidr r(cfg), "sorted");
}

} // namespace
} // namespace mitigation
} // namespace reaper
