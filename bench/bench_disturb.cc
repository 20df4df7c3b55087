/**
 * @file
 * Row-disturbance (RowHammer) characterization bench.
 *
 * Three sweeps over the disturbance subsystem:
 *  1. threshold census — per-vendor HCfirst distribution (victim-cell
 *     density, floor, median) read straight from the fault model, one
 *     fleet task per vendor (bit-identical at any REAPER_BENCH_THREADS
 *     by the runFleet ordered-collection contract);
 *  2. blast radius vs sidedness — the rowhammer profiler run at 1-, 2-
 *     and 4-sided aggressor patterns on the same module: more sides
 *     couple more pressure per activation, so the vulnerable-row count
 *     grows and the per-row minimum hammer counts shrink;
 *  3. profiler runtime vs binary-search resolution — wall-clock
 *     rows/sec of a full-module HCfirst search at coarse-to-fine
 *     resolutions; the resolution=2048 rows/sec figure is the
 *     perf-trajectory gate (scripts/check_bench.py).
 *
 * Emits BENCH_disturb.json in the working directory. The `ok` flag
 * asserts the determinism contract: a repeated gate-configuration run
 * reproduces the vulnerable-row list, every per-row minimum count, and
 * the emitted profile cells exactly.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "common/units.h"
#include "disturb/rowhammer_profiler.h"
#include "dram/disturb_model.h"
#include "dram/geometry.h"
#include "dram/module.h"
#include "dram/vendor_model.h"
#include "eval/fleet.h"
#include "testbed/softmc_host.h"

using namespace reaper;

namespace {

struct VendorCensus
{
    std::string vendor;
    uint64_t rows = 0;
    uint64_t victimCells = 0;
    double victimsPerRow = 0.0;
    double minThreshold = 0.0;
    double medianThreshold = 0.0;
};

VendorCensus
censusVendor(dram::Vendor vendor, uint64_t capacity_bits, uint64_t seed)
{
    dram::Geometry g = dram::Geometry::forCapacityBits(capacity_bits);
    dram::DisturbModel model(dram::vendorDisturbParams(vendor), g, seed);
    const uint64_t rows =
        static_cast<uint64_t>(g.banks()) * g.rowsPerBank();
    std::vector<double> thresholds;
    std::vector<dram::VictimCell> victims;
    for (uint64_t row = 0; row < rows; ++row) {
        model.victimsOfRowInto(row, victims);
        for (const dram::VictimCell &v : victims)
            thresholds.push_back(v.threshold);
    }
    VendorCensus out;
    out.vendor = dram::toString(vendor);
    out.rows = rows;
    out.victimCells = thresholds.size();
    out.victimsPerRow =
        static_cast<double>(thresholds.size()) / rows;
    if (!thresholds.empty()) {
        std::sort(thresholds.begin(), thresholds.end());
        out.minThreshold = thresholds.front();
        out.medianThreshold = thresholds[thresholds.size() / 2];
    }
    return out;
}

struct ProfilerRun
{
    profiling::RowHammerRunResult result;
    double wallSeconds = 0.0;
};

ProfilerRun
runProfiler(uint64_t capacity_bits, uint64_t seed, int sides,
            uint64_t resolution)
{
    dram::ModuleConfig mc;
    mc.numChips = 1;
    mc.chipCapacityBits = capacity_bits;
    mc.seed = seed;
    dram::DramModule module(mc);
    testbed::SoftMcHost host(module, bench::instantHost());

    profiling::RowHammerConfig cfg;
    cfg.target = {msToSec(1024.0), 45.0};
    cfg.sides = sides;
    cfg.countMax = 1ull << 17;
    cfg.countMin = 1024;
    cfg.resolution = resolution;
    cfg.setTemperature = false;

    ProfilerRun run;
    auto start = std::chrono::steady_clock::now();
    run.result = profiling::RowHammerProfiler{}.run(host, cfg);
    auto stop = std::chrono::steady_clock::now();
    run.wallSeconds =
        std::chrono::duration<double>(stop - start).count();
    return run;
}

double
meanMinCount(const std::vector<profiling::RowMinCount> &rows)
{
    if (rows.empty())
        return 0.0;
    double sum = 0.0;
    for (const profiling::RowMinCount &r : rows)
        sum += static_cast<double>(r.minCount);
    return sum / static_cast<double>(rows.size());
}

bool
sameRunResult(const profiling::RowHammerRunResult &a,
              const profiling::RowHammerRunResult &b)
{
    if (a.probeCycles != b.probeCycles ||
        a.vulnerableRows.size() != b.vulnerableRows.size())
        return false;
    for (size_t i = 0; i < a.vulnerableRows.size(); ++i)
        if (a.vulnerableRows[i].row != b.vulnerableRows[i].row ||
            a.vulnerableRows[i].minCount != b.vulnerableRows[i].minCount)
            return false;
    return a.base.profile.cells() == b.base.profile.cells();
}

} // namespace

int
main()
{
    bench::benchHeader("Row-disturbance characterization bench",
                       "disturb subsystem (BENCH_disturb.json)");

    const uint64_t census_bits =
        bench::quickMode() ? (1ull << 24) : (1ull << 30);
    const uint64_t profile_bits =
        bench::quickMode() ? (1ull << 22) : (1ull << 26);
    const uint64_t sides_bits =
        bench::quickMode() ? (1ull << 22) : (1ull << 24);
    const uint64_t seed = 1701;

    // 1. Per-vendor HCfirst census, one fleet task per vendor.
    const std::vector<dram::Vendor> vendors = {
        dram::Vendor::A, dram::Vendor::B, dram::Vendor::C};
    std::vector<VendorCensus> census = eval::runFleet(
        vendors.size(), [&](size_t i) {
            return censusVendor(vendors[i], census_bits, seed);
        });

    TablePrinter vt({"vendor", "rows", "victim cells", "victims/row",
                     "min HCfirst", "median HCfirst"});
    for (const VendorCensus &c : census)
        vt.addRow({c.vendor, std::to_string(c.rows),
                   std::to_string(c.victimCells),
                   fmtF(c.victimsPerRow, 4), fmtF(c.minThreshold, 0),
                   fmtF(c.medianThreshold, 0)});
    vt.print(std::cout);

    // 2. Blast radius vs aggressor sidedness.
    const std::vector<int> sidesSweep = {1, 2, 4};
    std::vector<ProfilerRun> bySides;
    for (int sides : sidesSweep)
        bySides.push_back(
            runProfiler(sides_bits, seed, sides, 2048));

    std::cout << "\n";
    TablePrinter st({"sides", "vulnerable rows", "mean min count",
                     "probe cycles", "profile cells"});
    for (size_t i = 0; i < sidesSweep.size(); ++i) {
        const profiling::RowHammerRunResult &r = bySides[i].result;
        st.addRow({std::to_string(sidesSweep[i]),
                   std::to_string(r.vulnerableRows.size()),
                   fmtF(meanMinCount(r.vulnerableRows), 0),
                   std::to_string(r.probeCycles),
                   std::to_string(r.base.profile.size())});
    }
    st.print(std::cout);

    // 3. Runtime vs binary-search resolution (gate: resolution=2048).
    const std::vector<uint64_t> resolutions = {512, 2048, 8192};
    const uint64_t profile_rows =
        [&] {
            dram::Geometry g =
                dram::Geometry::forCapacityBits(profile_bits);
            return static_cast<uint64_t>(g.banks()) * g.rowsPerBank();
        }();
    std::vector<ProfilerRun> byRes;
    for (uint64_t res : resolutions)
        byRes.push_back(runProfiler(profile_bits, seed, 2, res));

    std::cout << "\n";
    TablePrinter rt({"resolution", "rows/sec", "probe cycles",
                     "vulnerable rows", "wall time"});
    for (size_t i = 0; i < resolutions.size(); ++i) {
        const ProfilerRun &run = byRes[i];
        rt.addRow({std::to_string(resolutions[i]),
                   fmtF(profile_rows / run.wallSeconds, 0),
                   std::to_string(run.result.probeCycles),
                   std::to_string(run.result.vulnerableRows.size()),
                   fmtF(run.wallSeconds, 3) + "s"});
    }
    rt.print(std::cout);

    // Determinism contract: repeating the gate configuration must
    // reproduce rows, counts, and profile cells exactly.
    ProfilerRun repeat = runProfiler(profile_bits, seed, 2, 2048);
    bool deterministic = sameRunResult(repeat.result, byRes[1].result);
    std::cout << "\nRepeated resolution=2048 run bit-identical: "
              << (deterministic ? "yes" : "NO") << "\n";

    std::ofstream json("BENCH_disturb.json");
    json << "{\n"
         << "  \"bench\": \"disturb\",\n"
         << "  \"quick_mode\": "
         << (bench::quickMode() ? "true" : "false") << ",\n"
         << "  \"fleet_threads\": " << bench::benchThreads() << ",\n"
         << "  \"vendors\": [\n";
    for (size_t i = 0; i < census.size(); ++i) {
        const VendorCensus &c = census[i];
        json << "    {\"vendor\": \"" << c.vendor << "\", \"rows\": "
             << c.rows << ", \"victim_cells\": " << c.victimCells
             << ", \"victims_per_row\": " << c.victimsPerRow
             << ", \"min_threshold\": " << c.minThreshold
             << ", \"median_threshold\": " << c.medianThreshold << "}"
             << (i + 1 < census.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"sidedness\": [\n";
    for (size_t i = 0; i < sidesSweep.size(); ++i) {
        const profiling::RowHammerRunResult &r = bySides[i].result;
        json << "    {\"sides\": " << sidesSweep[i]
             << ", \"vulnerable_rows\": " << r.vulnerableRows.size()
             << ", \"mean_min_count\": "
             << meanMinCount(r.vulnerableRows)
             << ", \"probe_cycles\": " << r.probeCycles
             << ", \"profile_cells\": " << r.base.profile.size() << "}"
             << (i + 1 < sidesSweep.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"profiler\": [\n";
    for (size_t i = 0; i < resolutions.size(); ++i) {
        const ProfilerRun &run = byRes[i];
        json << "    {\"resolution\": " << resolutions[i]
             << ", \"rows\": " << profile_rows
             << ", \"rows_per_sec\": "
             << (profile_rows / run.wallSeconds)
             << ", \"probe_cycles\": " << run.result.probeCycles
             << ", \"vulnerable_rows\": "
             << run.result.vulnerableRows.size()
             << ", \"wall_seconds\": " << run.wallSeconds << "}"
             << (i + 1 < resolutions.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"repeat_bit_identical\": "
         << (deterministic ? "true" : "false") << ",\n"
         << "  \"ok\": " << (deterministic ? "true" : "false") << "\n"
         << "}\n";
    std::cout << "Wrote BENCH_disturb.json\n";
    return deterministic ? 0 : 1;
}
