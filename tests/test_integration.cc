/**
 * @file
 * Cross-module integration tests: the full REAPER pipeline exercised
 * end to end — device -> profiler -> (serialized) profile ->
 * mitigation mechanism -> ECC -> safety, for each mitigation
 * mechanism the library provides.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/units.h"
#include "dram/module.h"
#include "ecc/uber.h"
#include "mitigation/archshield.h"
#include "mitigation/raidr.h"
#include "profiling/profile.h"
#include "profiling/profile_io.h"
#include "profiling/reach.h"
#include "reaper/firmware.h"
#include "testbed/softmc_host.h"

namespace reaper {
namespace {

dram::ModuleConfig
moduleConfig(uint64_t seed)
{
    dram::ModuleConfig mc;
    mc.numChips = 1;
    mc.chipCapacityBits = 2ull * 1024 * 1024 * 1024; // 256 MB
    mc.seed = seed;
    mc.envelope = {2.0, 50.0};
    mc.chipVariation = 0.0;
    return mc;
}

testbed::HostConfig
instantHost()
{
    testbed::HostConfig h;
    h.useChamber = false;
    return h;
}

profiling::RetentionProfile
reachProfileOf(dram::DramModule &module,
               profiling::Conditions target = {1.024, 45.0})
{
    testbed::SoftMcHost host(module, instantHost());
    profiling::ReachConfig cfg;
    cfg.target = target;
    cfg.deltaRefreshInterval = 0.250;
    cfg.iterations = 4;
    return profiling::ReachProfiler{}.run(host, cfg).profile;
}

TEST(Integration, FirmwareWithRaidrReducesRefreshSafely)
{
    dram::DramModule module(moduleConfig(1));
    testbed::SoftMcHost host(module, instantHost());
    mitigation::RaidrConfig rc;
    rc.totalRows = module.capacityBits() / (2048 * 8);
    rc.binIntervals = {0.064, 1.024};
    mitigation::Raidr raidr(rc);
    firmware::OnlineReaperConfig cfg;
    cfg.target = {1.024, 45.0};
    firmware::OnlineReaper reaper(host, raidr, cfg);
    reaper.runFor(hoursToSec(20.0));

    // All but the profiled rows refresh 16x slower.
    EXPECT_LT(raidr.refreshWorkRelative(), 0.10);
    EXPECT_GT(raidr.stats().protectedRows, 0u);
    auto audit = reaper.auditSafety();
    EXPECT_TRUE(audit.safe)
        << audit.uncovered << " vs " << audit.tolerable;
}

TEST(Integration, FirmwareWithBloomRaidr)
{
    dram::DramModule module(moduleConfig(2));
    testbed::SoftMcHost host(module, instantHost());
    mitigation::RaidrConfig rc;
    rc.totalRows = module.capacityBits() / (2048 * 8);
    rc.useBloomFilters = true;
    rc.bloomExpectedRows = 4096;
    mitigation::Raidr raidr(rc);
    firmware::OnlineReaperConfig cfg;
    cfg.target = {1.024, 45.0};
    firmware::OnlineReaper reaper(host, raidr, cfg);
    reaper.profileOnce();
    // Bloom filters have no false negatives: safety must still hold.
    auto audit = reaper.auditSafety();
    EXPECT_TRUE(audit.safe);
    EXPECT_GT(raidr.bloomStorageBits(), 0u);
}

TEST(Integration, ProfileSurvivesSerializationIntoMitigation)
{
    // Profile -> save -> (reboot) -> load -> ArchShield behaves
    // identically.
    dram::DramModule module(moduleConfig(4));
    profiling::RetentionProfile original = reachProfileOf(module);
    ASSERT_GT(original.size(), 50u);

    std::stringstream persisted;
    profiling::saveProfile(original, persisted);
    profiling::RetentionProfile restored =
        profiling::loadProfile(persisted);

    mitigation::ArchShieldConfig ac;
    ac.capacityBits = module.capacityBits();
    mitigation::ArchShield from_original(ac), from_restored(ac);
    from_original.applyProfile(original);
    from_restored.applyProfile(restored);
    for (const auto &cell : module.trueFailingSet(1.024, 45.0)) {
        EXPECT_EQ(from_original.covers(cell),
                  from_restored.covers(cell));
    }
}

TEST(Integration, EscapedFailuresFitEccBudget)
{
    // The Section 6.2 contract: the failures that escape a reach
    // profile must fit the SECDED budget of the module.
    dram::DramModule module(moduleConfig(5));
    profiling::RetentionProfile profile = reachProfileOf(module);
    auto truth = module.trueFailingSet(1.024, 45.0);

    std::vector<uint64_t> escaped;
    for (const auto &cell : truth) {
        if (!profile.contains(cell))
            escaped.push_back(cell.addr);
    }
    double tolerable = ecc::tolerableBitErrors(
        ecc::kConsumerUber, ecc::EccConfig::secded(),
        module.capacityBits());
    EXPECT_LE(static_cast<double>(escaped.size()), tolerable);
}

TEST(Integration, OverheadModelMatchesFirmwareMeasurement)
{
    // The analytic Eq. 8/9 overhead and the firmware's measured
    // profiling share must agree for the same scenario.
    dram::DramModule module(moduleConfig(8));
    testbed::SoftMcHost host(module, instantHost());
    mitigation::ArchShieldConfig ac;
    ac.capacityBits = module.capacityBits();
    mitigation::ArchShield shield(ac);
    firmware::OnlineReaperConfig cfg;
    cfg.target = {1.024, 45.0};
    firmware::OnlineReaper reaper(host, shield, cfg);
    Seconds interval = reaper.scheduledReprofileInterval();
    reaper.runFor(3.0 * interval);

    double measured = reaper.overheadFraction();
    // Analytic: reach round time over the reprofiling interval.
    double expected = reaper.log().front().roundTime /
                      (reaper.log().front().roundTime + interval);
    EXPECT_NEAR(measured, expected, expected * 0.5 + 0.002);
}

} // namespace
} // namespace reaper
