/**
 * @file
 * Profile lifecycle across a "reboot": profile, persist, restore,
 * and decide — from the longevity model — whether the restored
 * profile is still trustworthy or a fresh profiling round is due.
 *
 * This is the deployment flow a real controller firmware would run:
 * profiles are expensive to collect (seconds to minutes of exclusive
 * DRAM access) and worth persisting, but VRT keeps invalidating them
 * at a predictable rate (Eq. 7), so restore must be paired with an
 * age check.
 *
 * Usage: profile_lifecycle [profile_path]
 */

#include <iostream>

#include "campaign/profile_store.h"
#include "common/table.h"
#include "common/units.h"
#include "dram/module.h"
#include "dram/retention_model.h"
#include "ecc/longevity.h"
#include "ecc/uber.h"
#include "mitigation/archshield.h"
#include "profiling/profile.h"
#include "profiling/profile_io.h"
#include "profiling/profile_view.h"
#include "profiling/profiler.h"
#include "profiling/reach.h"
#include "testbed/softmc_host.h"

using namespace reaper;

int
main(int argc, char **argv)
{
    std::string path = argc > 1 ? argv[1]
                                : "/tmp/reaper_profile_demo.txt";

    dram::ModuleConfig mc;
    mc.numChips = 1;
    mc.chipCapacityBits = 2ull * 1024 * 1024 * 1024; // 256 MB
    mc.seed = 2026;
    mc.envelope = {1.6, 48.0};
    dram::DramModule module(mc);
    testbed::HostConfig hc;
    hc.useChamber = false;
    testbed::SoftMcHost host(module, hc);

    profiling::Conditions target{1.024, 45.0};

    // --- Day 0: profile and persist. ---
    profiling::ReachConfig cfg;
    cfg.target = target;
    cfg.deltaRefreshInterval = 0.250;
    cfg.iterations = 4;
    profiling::ProfilingResult round =
        profiling::ReachProfiler{}.run(host, cfg);
    profiling::saveProfileFile(round.profile, path);
    std::cout << "Profiled " << round.profile.size() << " cells in "
              << fmtTime(round.runtime) << "; saved to " << path
              << "\n";

    // --- Compute how long this profile stays valid (Eq. 7). ---
    const dram::RetentionModel &model = module.chip(0).model();
    ecc::LongevityScenario scenario;
    scenario.capacityBits = module.capacityBits();
    scenario.eccStrength = ecc::EccConfig::secded();
    scenario.berAtTarget =
        model.berAt(target.refreshInterval, target.temperature);
    scenario.profilingCoverage = 0.99;
    scenario.accumulationPerHour =
        model.vrtCumulativeRate(target.refreshInterval,
                                scenario.capacityBits) *
        3600.0;
    Seconds longevity = ecc::computeLongevity(scenario).longevity;
    std::cout << "Longevity model: profile valid for "
              << fmtTime(longevity) << " (N="
              << fmtF(ecc::tolerableBitErrors(
                          ecc::kConsumerUber,
                          scenario.eccStrength,
                          scenario.capacityBits),
                      1)
              << " tolerable failures, A="
              << fmtF(scenario.accumulationPerHour, 2)
              << " cells/h)\n\n";

    // --- "Reboot" after some downtime; restore and age-check. ---
    for (Seconds downtime :
         {hoursToSec(6.0), 0.8 * longevity, 2.0 * longevity}) {
        profiling::RetentionProfile restored =
            profiling::loadProfileFile(path);
        bool still_valid = downtime < longevity;
        std::cout << "Reboot after " << fmtTime(downtime)
                  << ": restored " << restored.size() << " cells -> "
                  << (still_valid
                          ? "profile still within longevity: install "
                            "and operate"
                          : "profile EXPIRED: reprofile before "
                            "relaxing refresh")
                  << "\n";
        if (still_valid) {
            mitigation::ArchShieldConfig ac;
            ac.capacityBits = module.capacityBits();
            mitigation::ArchShield shield(ac);
            shield.applyProfile(restored);
            std::cout << "  ArchShield installed "
                      << shield.installedEntries() << " FaultMap "
                      << "entries from the restored profile\n";
        }
    }

    // --- Ongoing deployment: reprofiling rounds persist as deltas.
    // VRT keeps drifting the weak-cell set, but each round only
    // changes a handful of cells, so commitDelta() appends a small
    // delta record instead of rewriting the full profile.
    std::cout << "\n";
    campaign::ProfileStore store("/tmp/reaper_profile_demo_store");
    std::string key =
        campaign::ProfileStore::profileKey("demo-chip", target);
    store.commit(key, round.profile);
    for (int reprofile = 1; reprofile <= 3; ++reprofile) {
        profiling::ProfilingResult again =
            profiling::ReachProfiler{}.run(host, cfg);
        store.commitDelta(key, again.profile);
        std::cout << "Reprofiling round " << reprofile << ": "
                  << again.profile.size() << " cells, chain length "
                  << store.entries()[0].deltas << "\n";
    }

    // openView() compacts the chain (byte-identical to a full
    // commit) and hands back a lazy block-indexed view: point
    // lookups decode only the block they touch.
    common::Expected<profiling::ProfileView> view =
        store.openView(key);
    if (view.hasValue()) {
        profiling::RetentionProfile latest =
            store.load(key).value();
        size_t lookups = 0;
        for (size_t i = 0; i < latest.size(); i += 64, ++lookups)
            (void)view.value().contains(latest.cells()[i]);
        std::cout << "View over " << view.value().cellCount()
                  << " cells: " << lookups
                  << " point lookups decoded "
                  << view.value().blocksDecoded() << " of "
                  << view.value().blockCount() << " blocks\n";
    }
    return 0;
}
