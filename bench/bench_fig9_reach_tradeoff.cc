/**
 * @file
 * Fig. 9: coverage (top) and false-positive rate (bottom) of reach
 * profiling over a grid of reach conditions (delta refresh interval x
 * delta temperature) relative to a target of 1024 ms at 45 C.
 *
 * (x, y) = (0, 0) is brute-force profiling at the target itself; each
 * other point profiles at the reach conditions with the same number of
 * testing rounds and is scored against the target's ground truth.
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
    bench::benchHeader("Fig. 9 - reach-condition tradeoff contours",
                       "Section 6.1.1");

    uint64_t capacity = bench::quickMode()
                            ? 1ull * 1024 * 1024 * 1024  // 128 MB
                            : 2ull * 1024 * 1024 * 1024; // 256 MB
    dram::ModuleConfig mc = bench::characterizationModule(
        dram::Vendor::B, 77, {2.4, 56.0}, capacity);
    mc.chipVariation = 0.0;
    dram::DramModule module(mc);

    profiling::Conditions target{1.024, 45.0};
    auto truth = module.trueFailingSet(target.refreshInterval,
                                       target.temperature);
    std::cout << "Target: " << fmtTime(target.refreshInterval) << " @ "
              << target.temperature << "C; truth = " << truth.size()
              << " cells\n\n";

    std::vector<double> d_refi = {0.0, 0.125, 0.25, 0.5, 0.75, 1.0};
    std::vector<double> d_temp = {-5.0, -2.5, 0.0, 2.5, 5.0, 7.5, 10.0};
    int iterations = bench::scaled(4, 2);

    std::vector<std::string> header = {"dT \\ d_tREFI"};
    for (double dr : d_refi)
        header.push_back("+" + fmtTime(dr));

    // Each grid cell profiles its own identically-seeded chip (same
    // static weak-cell population as the truth module) from t = 0, so
    // cells are independent fleet tasks and the contour is free of the
    // VRT-drift ordering artifact a shared sequential module had.
    struct Score
    {
        double coverage, fpr;
    };
    auto scores = eval::runFleet(
        d_temp.size() * d_refi.size(), [&](size_t i) {
            double dt = d_temp[i / d_refi.size()];
            double dr = d_refi[i % d_refi.size()];
            dram::DramModule cell_module(mc);
            testbed::SoftMcHost host(cell_module, bench::instantHost());
            profiling::BruteForceConfig cfg;
            cfg.test = {target.refreshInterval + dr,
                        target.temperature + dt};
            cfg.iterations = iterations;
            profiling::ProfilingResult r =
                profiling::BruteForceProfiler{}.run(host, cfg);
            profiling::ProfileMetrics m =
                profiling::scoreProfile(r.profile, truth, r.runtime);
            return Score{m.coverage, m.falsePositiveRate};
        });

    TablePrinter coverage(header);
    TablePrinter fpr(header);
    for (size_t ti = 0; ti < d_temp.size(); ++ti) {
        std::vector<std::string> cov_row = {fmtF(d_temp[ti], 1) + "C"};
        std::vector<std::string> fpr_row = {fmtF(d_temp[ti], 1) + "C"};
        for (size_t ri = 0; ri < d_refi.size(); ++ri) {
            const Score &s = scores[ti * d_refi.size() + ri];
            cov_row.push_back(fmtPct(s.coverage));
            fpr_row.push_back(fmtPct(s.fpr));
        }
        coverage.addRow(cov_row);
        fpr.addRow(fpr_row);
    }

    std::cout << "Coverage of the target failing set:\n";
    coverage.print(std::cout);
    std::cout << "\nFalse positive rate:\n";
    fpr.print(std::cout);
    std::cout
        << "\nShape check: coverage and FPR both increase toward the "
           "upper-right (longer interval, hotter) - the\n"
        << "coverage/false-positive tradeoff of Section 6.1; profiling "
           "BELOW the target (negative dT) loses coverage.\n";
    return 0;
}
