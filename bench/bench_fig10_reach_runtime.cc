/**
 * @file
 * Fig. 10: profiling runtime over reach conditions, normalized to
 * brute-force profiling at the target, where each configuration runs
 * until it reaches 90% coverage of the target failing set.
 */

#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "dram/module.h"
#include "dram/vendor_model.h"
#include "eval/fleet.h"
#include "profiling/brute_force.h"
#include "profiling/profile.h"
#include "profiling/profiler.h"
#include "testbed/softmc_host.h"

using namespace reaper;

int
main()
{
    bench::benchHeader("Fig. 10 - reach-condition runtime contours",
                       "Section 6.1.1; Fig. 10 (90% coverage)");

    uint64_t capacity = bench::quickMode()
                            ? 1ull * 1024 * 1024 * 1024  // 128 MB
                            : 2ull * 1024 * 1024 * 1024; // 256 MB
    dram::ModuleConfig mc = bench::characterizationModule(
        dram::Vendor::B, 78, {2.4, 56.0}, capacity);
    mc.chipVariation = 0.0;
    dram::DramModule module(mc);

    profiling::Conditions target{1.024, 45.0};
    auto truth = module.trueFailingSet(target.refreshInterval,
                                       target.temperature);
    const double kCoverageGoal = 0.90;
    const int kMaxIterations = bench::scaled(48, 24);

    // Each grid cell profiles its own identically-seeded chip (same
    // static population as the truth module), so every cell is an
    // independent fleet task.
    auto runtime_to_goal = [&](double dr, double dt) -> double {
        dram::DramModule cell_module(mc);
        testbed::SoftMcHost host(cell_module, bench::instantHost());
        profiling::BruteForceConfig cfg;
        cfg.test = {target.refreshInterval + dr,
                    target.temperature + dt};
        cfg.iterations = kMaxIterations;
        bool reached = false;
        cfg.onIteration =
            [&](int, const profiling::RetentionProfile &p) {
                double cov =
                    truth.empty()
                        ? 1.0
                        : static_cast<double>(
                              p.intersectionSize(truth)) /
                              static_cast<double>(truth.size());
                if (cov >= kCoverageGoal) {
                    reached = true;
                    return false;
                }
                return true;
            };
        profiling::ProfilingResult r =
            profiling::BruteForceProfiler{}.run(host, cfg);
        return reached ? r.runtime : -1.0;
    };

    std::vector<double> d_refi = {0.0, 0.125, 0.25, 0.5, 1.0};
    std::vector<double> d_temp = {-2.5, 0.0, 2.5, 5.0, 10.0};

    auto runtimes = eval::runFleet(
        d_temp.size() * d_refi.size(), [&](size_t i) {
            return runtime_to_goal(d_refi[i % d_refi.size()],
                                   d_temp[i / d_refi.size()]);
        });

    size_t base_idx = 0;
    for (size_t ti = 0; ti < d_temp.size(); ++ti)
        for (size_t ri = 0; ri < d_refi.size(); ++ri)
            if (d_temp[ti] == 0.0 && d_refi[ri] == 0.0)
                base_idx = ti * d_refi.size() + ri;
    double base = runtimes[base_idx];
    std::cout << "Brute-force runtime to " << fmtPct(kCoverageGoal, 0)
              << " coverage: " << fmtTime(base) << "\n\n";

    std::vector<std::string> header = {"dT \\ d_tREFI"};
    for (double dr : d_refi)
        header.push_back("+" + fmtTime(dr));
    TablePrinter table(header);
    for (size_t ti = 0; ti < d_temp.size(); ++ti) {
        std::vector<std::string> row = {fmtF(d_temp[ti], 1) + "C"};
        for (size_t ri = 0; ri < d_refi.size(); ++ri) {
            double rt = runtimes[ti * d_refi.size() + ri];
            row.push_back(rt > 0 ? fmtF(base / rt, 2) + "x" : "never");
        }
        table.addRow(row);
    }
    table.print(std::cout);

    std::cout << "\nShape check: speedup over brute force grows toward "
                 "the upper-right (aggressive reach conditions reach "
                 "the\ncoverage goal in fewer, albeit slightly longer, "
                 "iterations); conditions below the target may never "
                 "reach it.\n";
    return 0;
}
