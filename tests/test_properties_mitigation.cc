/**
 * @file
 * Property-style parameterized tests across the mitigation mechanisms
 * and the online firmware: invariants that must hold for every
 * mechanism and every target interval.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "mitigation/archshield.h"
#include "mitigation/avatar.h"
#include "mitigation/raidr.h"
#include "reaper/firmware.h"

namespace reaper {
namespace {

constexpr uint64_t kRowBits = 2048ull * 8;
constexpr uint64_t kCapacityBits = 1ull << 31; // 256 MB
constexpr uint64_t kTotalRows = kCapacityBits / kRowBits;

profiling::RetentionProfile
randomProfile(uint64_t seed, size_t cells)
{
    Rng rng(seed);
    std::vector<dram::ChipFailure> v;
    for (size_t i = 0; i < cells; ++i)
        v.push_back({0, rng.uniformInt(kCapacityBits)});
    profiling::RetentionProfile p({1.024, 45.0});
    p.add(v);
    return p;
}

/** Factory for each mechanism under test. */
std::unique_ptr<mitigation::MitigationMechanism>
makeMechanism(const std::string &name)
{
    if (name == "ArchShield") {
        mitigation::ArchShieldConfig cfg;
        cfg.capacityBits = kCapacityBits;
        return std::make_unique<mitigation::ArchShield>(cfg);
    }
    if (name == "RAIDR") {
        mitigation::RaidrConfig cfg;
        cfg.totalRows = kTotalRows;
        return std::make_unique<mitigation::Raidr>(cfg);
    }
    if (name == "RAIDR-bloom") {
        mitigation::RaidrConfig cfg;
        cfg.totalRows = kTotalRows;
        cfg.useBloomFilters = true;
        return std::make_unique<mitigation::Raidr>(cfg);
    }
    if (name == "AVATAR") {
        mitigation::AvatarConfig cfg;
        cfg.totalRows = kTotalRows;
        return std::make_unique<mitigation::Avatar>(cfg);
    }
    ADD_FAILURE() << "unknown mechanism " << name;
    return nullptr;
}

class MechanismProperty
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(MechanismProperty, CoversEveryProfiledCell)
{
    // The fundamental mitigation contract: every cell in the
    // installed profile is covered.
    auto mech = makeMechanism(GetParam());
    profiling::RetentionProfile p = randomProfile(1, 400);
    mech->applyProfile(p);
    for (const auto &cell : p.cells())
        EXPECT_TRUE(mech->covers(cell)) << mech->name();
}

TEST_P(MechanismProperty, ReapplyingReplacesCoverage)
{
    auto mech = makeMechanism(GetParam());
    profiling::RetentionProfile first = randomProfile(2, 200);
    profiling::RetentionProfile second = randomProfile(3, 200);
    mech->applyProfile(first);
    mech->applyProfile(second);
    for (const auto &cell : second.cells())
        EXPECT_TRUE(mech->covers(cell));
}

TEST_P(MechanismProperty, StatsAreConsistent)
{
    auto mech = makeMechanism(GetParam());
    profiling::RetentionProfile p = randomProfile(4, 300);
    mech->applyProfile(p);
    mitigation::MitigationStats s = mech->stats();
    EXPECT_GT(s.protectedCells, 0u);
    EXPECT_GT(s.protectedRows, 0u);
    EXPECT_LE(s.protectedRows, s.protectedCells);
    EXPECT_GE(s.capacityOverhead, 0.0);
    EXPECT_LE(s.capacityOverhead, 1.0);
    EXPECT_GT(s.refreshWorkRelative, 0.0);
}

TEST_P(MechanismProperty, EmptyProfileCoversNothing)
{
    auto mech = makeMechanism(GetParam());
    mech->applyProfile(profiling::RetentionProfile{});
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        dram::ChipFailure f{0, rng.uniformInt(kCapacityBits)};
        // RAIDR-bloom may keep (empty) filters; still nothing inside.
        EXPECT_FALSE(mech->covers(f)) << mech->name();
    }
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, MechanismProperty,
                         ::testing::Values("ArchShield", "RAIDR",
                                           "RAIDR-bloom", "AVATAR"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &ch : n)
                                 if (ch == '-')
                                     ch = '_';
                             return n;
                         });

// ---------------------------------------------------------------
// Firmware safety across target intervals.
// ---------------------------------------------------------------

class FirmwareTargetProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(FirmwareTargetProperty, SafetyHoldsAtEveryTarget)
{
    double target = GetParam();
    dram::ModuleConfig mc;
    mc.numChips = 1;
    mc.chipCapacityBits = 2ull * 1024 * 1024 * 1024; // 256 MB
    mc.seed = 100 + static_cast<uint64_t>(target * 1000);
    mc.envelope = {target + 0.8, 50.0};
    mc.chipVariation = 0.0;
    dram::DramModule module(mc);
    testbed::HostConfig hc;
    hc.useChamber = false;
    testbed::SoftMcHost host(module, hc);

    mitigation::ArchShieldConfig ac;
    ac.capacityBits = module.capacityBits();
    mitigation::ArchShield shield(ac);
    firmware::OnlineReaperConfig cfg;
    cfg.target = {target, 45.0};
    firmware::OnlineReaper reaper(host, shield, cfg);
    reaper.profileOnce();
    auto audit = reaper.auditSafety();
    EXPECT_TRUE(audit.safe)
        << "target " << target << ": " << audit.uncovered << " vs "
        << audit.tolerable;
    // Longer targets must reprofile more often.
    EXPECT_GT(reaper.scheduledReprofileInterval(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Targets, FirmwareTargetProperty,
                         ::testing::Values(0.512, 0.768, 1.024,
                                           1.280),
                         [](const auto &info) {
                             return "t" + std::to_string(static_cast<int>(
                                        info.param * 1000)) + "ms";
                         });

} // namespace
} // namespace reaper
