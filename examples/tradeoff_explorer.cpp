/**
 * @file
 * Reach-condition trade-off explorer (the Section 6.1 design flow).
 *
 * Sweeps reach profiling conditions (delta refresh interval, delta
 * temperature) around a target and prints the resulting coverage,
 * false-positive rate, and runtime so a system designer can pick an
 * operating point (Section 6.1.2).
 *
 * Usage: tradeoff_explorer [target_refi_ms] [target_temp_C]
 */

#include <cstdlib>
#include <iostream>

#include "common/table.h"
#include "common/units.h"
#include "dram/module.h"
#include "profiling/brute_force.h"
#include "profiling/profile.h"
#include "profiling/profiler.h"
#include "profiling/reach.h"
#include "testbed/softmc_host.h"

using namespace reaper;

int
main(int argc, char **argv)
{
    profiling::Conditions target{1.024, 45.0};
    if (argc > 1)
        target.refreshInterval = msToSec(std::atof(argv[1]));
    if (argc > 2)
        target.temperature = std::atof(argv[2]);
    if (target.refreshInterval <= 0 || target.refreshInterval > 1.6) {
        std::cerr << "target refresh interval must be in (0, 1600] ms\n";
        return 1;
    }

    dram::ModuleConfig mc;
    mc.numChips = 1;
    mc.chipCapacityBits = 2ull * 1024 * 1024 * 1024; // 256 MB
    mc.seed = 99;
    mc.envelope = {target.refreshInterval + 1.2,
                   target.temperature + 8.0};
    dram::DramModule module(mc);
    testbed::HostConfig hc;
    hc.useChamber = false;

    auto truth = module.trueFailingSet(target.refreshInterval,
                                       target.temperature);
    std::cout << "Target: " << fmtTime(target.refreshInterval) << " at "
              << target.temperature << " C; " << truth.size()
              << " true failing cells\n\n";

    TablePrinter table({"d_tREFI", "d_T", "coverage", "false pos.",
                        "runtime", "vs brute"});

    double brute_runtime = 0.0;
    for (double d_temp : {0.0, 2.5, 5.0}) {
        for (double d_refi : {0.0, 0.125, 0.250, 0.500}) {
            testbed::SoftMcHost host(module, hc);
            profiling::ProfilingResult result;
            if (d_refi == 0.0 && d_temp == 0.0) {
                // The (0, 0) point is brute-force profiling.
                profiling::BruteForceConfig cfg;
                cfg.test = target;
                cfg.iterations = 16;
                result = profiling::BruteForceProfiler{}.run(host, cfg);
                brute_runtime = result.runtime;
            } else {
                profiling::ReachConfig cfg;
                cfg.target = target;
                cfg.deltaRefreshInterval = d_refi;
                cfg.deltaTemperature = d_temp;
                cfg.iterations = 4;
                result = profiling::ReachProfiler{}.run(host, cfg);
            }
            profiling::ProfileMetrics m = profiling::scoreProfile(
                result.profile, truth, result.runtime);
            table.addRow({"+" + fmtTime(d_refi),
                          "+" + fmtF(d_temp, 1) + "C",
                          fmtPct(m.coverage), fmtPct(m.falsePositiveRate),
                          fmtTime(m.runtime),
                          fmtF(brute_runtime / m.runtime, 2) + "x"});
        }
    }
    table.print(std::cout);
    std::cout << "\nHigher reach -> higher coverage and shorter runtime,"
              << " at the cost of false positives (Section 6.1).\n";
    return 0;
}
