/**
 * @file
 * Section 7.3.2 ArchShield case study: REAPER + ArchShield at a
 * 1024 ms refresh interval with 64 Gb chips. The paper estimates the
 * combined gain as (ideal-profiling gain) - (ArchShield's ~1% cost),
 * adjusted for online-profiling overhead: 12.5% average (23.7% max)
 * with REAPER vs 6.5% (17% max) with brute force.
 */

#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "dram/module.h"
#include "dram/vendor_model.h"
#include "eval/endtoend.h"
#include "eval/overhead.h"
#include "mitigation/archshield.h"
#include "profiling/profiler.h"
#include "profiling/reach.h"
#include "testbed/softmc_host.h"

using namespace reaper;

int
main()
{
    bench::benchHeader("Section 7.3.2 - ArchShield + REAPER",
                       "12.5% avg gain with REAPER vs 6.5% brute");

    eval::EndToEndConfig cfg;
    cfg.refreshIntervals = {1.024};
    cfg.includeNoRefresh = false;
    cfg.chipGbits = {64};
    cfg.numMixes = bench::scaled(20, 6);
    cfg.accessesPerCore = bench::scaled(60000, 20000);
    cfg.runCycles = bench::scaled(1000000, 300000);
    // ArchShield's FaultMap lookups cost ~1% performance (its paper);
    // its extra refresh work is zero.
    const double kArchShieldCost = 0.01;

    eval::EndToEndEvaluator evaluator(cfg);
    std::vector<eval::SweepPoint> points = evaluator.run();
    const eval::SweepPoint &pt = points.front();

    TablePrinter table({"profiler", "avg gain", "max gain",
                        "profiling overhead"});
    for (eval::ProfilerKind kind :
         {eval::ProfilerKind::BruteForce, eval::ProfilerKind::Reaper,
          eval::ProfilerKind::Ideal}) {
        BoxStats box = pt.perfBox(kind);
        double ov =
            pt.overhead[static_cast<size_t>(eval::profilerIndex(kind))]
                .overheadFraction;
        table.addRow({eval::toString(kind),
                      fmtPct(box.mean - kArchShieldCost),
                      fmtPct(box.hi - kArchShieldCost), fmtPct(ov)});
    }
    table.print(std::cout);

    // Also exercise the actual mechanism: fill an ArchShield FaultMap
    // from a real reach profile and report its occupancy.
    dram::ModuleConfig mc = bench::characterizationModule(
        dram::Vendor::B, 5, {1.6, 46.0},
        2ull * 1024 * 1024 * 1024); // 256 MB
    dram::DramModule module(mc);
    testbed::SoftMcHost host(module, bench::instantHost());
    profiling::ReachConfig rc;
    rc.target = {1.024, 45.0};
    rc.iterations = 4;
    profiling::ProfilingResult r =
        profiling::ReachProfiler{}.run(host, rc);
    mitigation::ArchShieldConfig ac;
    ac.capacityBits = module.capacityBits();
    mitigation::ArchShield shield(ac);
    shield.applyProfile(r.profile);
    std::cout << "\nFaultMap after one REAPER round on a 256 MB "
                 "module: "
              << shield.installedEntries() << " / "
              << shield.faultMapCapacityEntries() << " entries ("
              << fmtPct(static_cast<double>(shield.installedEntries()) /
                        static_cast<double>(
                            shield.faultMapCapacityEntries()),
                        3)
              << " full; false positives included by design).\n";
    std::cout << "\nShape check: REAPER keeps most of the ideal gain; "
                 "brute-force loses about half of it at 1024 ms.\n";
    return 0;
}
