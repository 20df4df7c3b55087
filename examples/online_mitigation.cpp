/**
 * @file
 * Online REAPER + ArchShield: reliable relaxed-refresh operation.
 *
 * The scenario of Section 7.1.1: the REAPER firmware periodically
 * reach-profiles the module, installs the failing-cell profile into an
 * ArchShield-style FaultMap, and derives the reprofiling schedule from
 * the profile-longevity model (Eq. 7). The example operates the system
 * for three (virtual) days and then audits, against the device oracle,
 * that the failures escaping the mitigation fit the SECDED ECC budget.
 */

#include <iostream>

#include "common/table.h"
#include "common/units.h"
#include "dram/module.h"
#include "ecc/uber.h"
#include "mitigation/archshield.h"
#include "mitigation/mitigation.h"
#include "reaper/firmware.h"
#include "testbed/softmc_host.h"

using namespace reaper;

int
main()
{
    dram::ModuleConfig mc;
    mc.numChips = 1;
    mc.chipCapacityBits = 4ull * 1024 * 1024 * 1024; // 512 MB
    mc.seed = 7;
    mc.envelope = {2.0, 50.0};
    dram::DramModule module(mc);

    testbed::HostConfig hc;
    hc.useChamber = false;
    testbed::SoftMcHost host(module, hc);

    mitigation::ArchShieldConfig shield_cfg;
    shield_cfg.capacityBits = module.capacityBits();
    mitigation::ArchShield shield(shield_cfg);

    firmware::OnlineReaperConfig cfg;
    cfg.target = {1.024, 45.0}; // 16x fewer refreshes than JEDEC
    cfg.reachDeltaInterval = 0.250;
    cfg.reachIterations = 4;
    cfg.eccStrength = ecc::EccConfig::secded();
    firmware::OnlineReaper reaper(host, shield, cfg);

    std::cout << "Operating a 512 MB module at tREFI = "
              << fmtTime(cfg.target.refreshInterval)
              << " with ArchShield + online REAPER for 3 days...\n\n";

    reaper.runFor(daysToSec(3.0));

    TablePrinter log({"round end", "profiling time", "cells installed",
                      "next round in"});
    for (const auto &e : reaper.log()) {
        log.addRow({fmtTime(e.time), fmtTime(e.roundTime),
                    std::to_string(e.profileSize),
                    fmtTime(e.reprofileIn)});
    }
    log.print(std::cout);

    mitigation::MitigationStats ms = shield.stats();
    std::cout << "\nArchShield: " << ms.protectedCells
              << " cells replicated across " << ms.protectedRows
              << " rows (FaultMap reserves "
              << fmtPct(ms.capacityOverhead) << " of DRAM)\n";
    std::cout << "Profiling overhead: "
              << fmtPct(reaper.overheadFraction(), 3)
              << " of total time\n";

    firmware::OnlineReaper::SafetyAudit audit = reaper.auditSafety();
    std::cout << "\nSafety audit (oracle): " << audit.truthSize
              << " failing cells at target conditions, "
              << audit.uncovered << " escape the mitigation; ECC "
              << "budget " << fmtF(audit.tolerable, 1) << " -> "
              << (audit.safe ? "SAFE" : "UNSAFE") << "\n";
    return audit.safe ? 0 : 1;
}
