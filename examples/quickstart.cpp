/**
 * @file
 * Quickstart: profile a simulated LPDDR4 chip for retention failures.
 *
 * Builds a small DRAM module, runs the brute-force profiler
 * (Algorithm 1) and the REAPER reach profiler against the same target
 * conditions, and scores both against the ground-truth failing set —
 * reproducing the paper's core claim (reach profiling finds >99% of
 * failures ~2.5x faster, at the cost of some false positives) on your
 * own machine in a few seconds.
 */

#include <iostream>

#include "common/table.h"
#include "dram/module.h"
#include "dram/vendor_model.h"
#include "profiling/brute_force.h"
#include "profiling/profile.h"
#include "profiling/profiler.h"
#include "profiling/reach.h"
#include "testbed/softmc_host.h"

using namespace reaper;

int
main()
{
    // A 512 MB vendor-B chip, testable up to 2.5 s / 50 C.
    dram::ModuleConfig mc;
    mc.numChips = 1;
    mc.chipCapacityBits = 4ull * 1024 * 1024 * 1024; // 512 MB
    mc.vendor = dram::Vendor::B;
    mc.seed = 42;
    mc.envelope = {2.5, 50.0};
    dram::DramModule module(mc);

    // The host test interface. Disable the thermal-chamber model so
    // temperature changes apply instantly (see examples/
    // thermal_testbed.cpp for the full-realism path).
    testbed::HostConfig hc;
    hc.useChamber = false;
    testbed::SoftMcHost host(module, hc);

    // We want to run the system at a 1024 ms refresh interval, 45 C.
    profiling::Conditions target{1.024, 45.0};
    auto truth = module.trueFailingSet(target.refreshInterval,
                                       target.temperature);
    std::cout << "Chip: 512 MB, vendor B. Target: tREFI = "
              << fmtTime(target.refreshInterval) << " at "
              << target.temperature << " C\n"
              << "Ground truth: " << truth.size()
              << " cells can fail at the target conditions\n\n";

    // 1) Brute-force profiling (Algorithm 1), 16 iterations.
    profiling::BruteForceConfig bf_cfg;
    bf_cfg.test = target;
    bf_cfg.iterations = 16;
    profiling::BruteForceProfiler brute;
    profiling::ProfilingResult bf = brute.run(host, bf_cfg);
    profiling::ProfileMetrics bf_m =
        profiling::scoreProfile(bf.profile, truth, bf.runtime);

    // 2) REAPER: reach profiling +250 ms above the target, 4 iterations.
    profiling::ReachConfig reach_cfg;
    reach_cfg.target = target;
    reach_cfg.deltaRefreshInterval = 0.250;
    reach_cfg.iterations = 4;
    profiling::ReachProfiler reaper;
    profiling::ProfilingResult rp = reaper.run(host, reach_cfg);
    profiling::ProfileMetrics rp_m =
        profiling::scoreProfile(rp.profile, truth, rp.runtime);

    TablePrinter table({"profiler", "coverage", "false positives",
                        "runtime", "speedup"});
    table.addRow({"brute-force (16 it)", fmtPct(bf_m.coverage),
                  fmtPct(bf_m.falsePositiveRate), fmtTime(bf_m.runtime),
                  "1.00x"});
    table.addRow({"REAPER +250ms (4 it)", fmtPct(rp_m.coverage),
                  fmtPct(rp_m.falsePositiveRate), fmtTime(rp_m.runtime),
                  fmtF(bf_m.runtime / rp_m.runtime, 2) + "x"});
    table.print(std::cout);

    std::cout << "\nREAPER found " << rp_m.truePositives << "/"
              << truth.size() << " true failing cells ("
              << rp_m.falsePositives << " false positives) in "
              << fmtTime(rp_m.runtime) << " of DRAM-test time.\n";
    return 0;
}
