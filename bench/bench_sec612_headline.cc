/**
 * @file
 * Section 6.1.2 headline result: averaged across chips from all three
 * vendors, profiling +250 ms above the target refresh interval
 * attains > 99% coverage with < 50% false positives while running
 * ~2.5x faster than brute-force profiling; pushing the reach further
 * buys up to ~3.5x at > 75% false positives.
 */

#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "dram/module.h"
#include "dram/vendor_model.h"
#include "eval/fleet.h"
#include "profiling/brute_force.h"
#include "profiling/profile.h"
#include "profiling/profiler.h"
#include "profiling/reach.h"
#include "testbed/softmc_host.h"

using namespace reaper;

namespace {

struct Aggregate
{
    RunningStats coverage, fpr, speedup;
};

} // namespace

int
main()
{
    bench::benchHeader("Section 6.1.2 - headline reach results",
                       "99% coverage, <50% FP, 2.5x at +250 ms");

    uint64_t capacity = bench::quickMode()
                            ? 1ull * 1024 * 1024 * 1024  // 128 MB
                            : 2ull * 1024 * 1024 * 1024; // 256 MB
    int chips_per_vendor = bench::scaled(4, 2);
    profiling::Conditions target{1.024, 45.0};

    struct Config
    {
        std::string name;
        double d_refi;
        double d_temp;
        int iterations;
    };
    std::vector<Config> configs = {
        {"reach +250ms", 0.250, 0.0, 4},
        {"reach +500ms", 0.500, 0.0, 3},
        {"reach +250ms +5C", 0.250, 5.0, 3},
    };

    // One fleet task per (vendor, chip): each task owns its module,
    // runs the brute-force baseline and all reach configs on it, and
    // returns the per-config metrics. Aggregation walks the ordered
    // results, so the averages are identical at any thread count.
    struct ChipResult
    {
        bool valid = false;
        std::vector<double> coverage, fpr, speedup;
    };
    std::vector<dram::Vendor> vendors = {
        dram::Vendor::A, dram::Vendor::B, dram::Vendor::C};
    size_t n_chips =
        vendors.size() * static_cast<size_t>(chips_per_vendor);
    auto chip_results = eval::runFleet(n_chips, [&](size_t i) {
        dram::Vendor vendor = vendors[i / chips_per_vendor];
        uint64_t chip = i % chips_per_vendor;
        dram::ModuleConfig mc = bench::characterizationModule(
            vendor,
            1000 + static_cast<uint64_t>(vendor) * 100 + chip,
            {2.4, 52.0}, capacity);
        dram::DramModule module(mc);
        auto truth = module.trueFailingSet(target.refreshInterval,
                                           target.temperature);
        ChipResult res;
        if (truth.empty())
            return res;
        res.valid = true;

        // Brute-force baseline: 16 iterations at the target.
        testbed::SoftMcHost bf_host(module, bench::instantHost());
        profiling::BruteForceConfig bf_cfg;
        bf_cfg.test = target;
        bf_cfg.iterations = 16;
        profiling::ProfilingResult bf =
            profiling::BruteForceProfiler{}.run(bf_host, bf_cfg);

        for (size_t ci = 0; ci < configs.size(); ++ci) {
            testbed::SoftMcHost host(module, bench::instantHost());
            profiling::ReachConfig cfg;
            cfg.target = target;
            cfg.deltaRefreshInterval = configs[ci].d_refi;
            cfg.deltaTemperature = configs[ci].d_temp;
            cfg.iterations = configs[ci].iterations;
            profiling::ProfilingResult r =
                profiling::ReachProfiler{}.run(host, cfg);
            profiling::ProfileMetrics m = profiling::scoreProfile(
                r.profile, truth, r.runtime);
            res.coverage.push_back(m.coverage);
            res.fpr.push_back(m.falsePositiveRate);
            res.speedup.push_back(bf.runtime / r.runtime);
        }
        return res;
    });

    std::vector<Aggregate> agg(configs.size());
    for (const ChipResult &res : chip_results) {
        if (!res.valid)
            continue;
        for (size_t ci = 0; ci < configs.size(); ++ci) {
            agg[ci].coverage.add(res.coverage[ci]);
            agg[ci].fpr.add(res.fpr[ci]);
            agg[ci].speedup.add(res.speedup[ci]);
        }
    }

    TablePrinter table({"configuration", "chips", "avg coverage",
                        "avg false pos.", "avg speedup vs brute"});
    for (size_t ci = 0; ci < configs.size(); ++ci) {
        table.addRow({configs[ci].name,
                      std::to_string(agg[ci].coverage.count()),
                      fmtPct(agg[ci].coverage.mean(), 2),
                      fmtPct(agg[ci].fpr.mean()),
                      fmtF(agg[ci].speedup.mean(), 2) + "x"});
    }
    table.print(std::cout);

    std::cout << "\nPaper anchors: +250 ms -> >99% coverage, <50% FP, "
                 "2.5x; aggressive reach -> up to 3.5x at >75% FP.\n";
    return 0;
}
