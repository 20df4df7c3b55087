/**
 * @file
 * Fig. 5: cumulative fraction of all discovered retention failures
 * found by EACH data pattern individually, over 800 brute-force
 * iterations spanning 6 days at 2048 ms, 45 C.
 *
 * Observation 3: the random pattern approaches (but never reaches)
 * full coverage by itself; a robust profiler must test multiple data
 * patterns (Corollary 3).
 *
 * Each pattern/inverse class runs its own 6-day timeline on an
 * identically-seeded chip (same static weak-cell population), as one
 * fleet task; the figure's "total" is the union across classes. This
 * is exactly the per-pattern decomposition the figure plots, and it
 * parallelizes the dominant cost (12 patterns x 800 iterations).
 */

#include <array>
#include <iostream>
#include <map>
#include <set>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "common/units.h"
#include "dram/data_pattern.h"
#include "dram/module.h"
#include "dram/vendor_model.h"
#include "eval/fleet.h"
#include "testbed/softmc_host.h"

using namespace reaper;

namespace {

/** Snapshots of one pattern-class's cumulative discoveries. */
struct ClassCurve
{
    int cls = 0;
    /** Cumulative failing set at each checkpoint (last = final). */
    std::vector<std::set<dram::ChipFailure>> checkpoints;
};

} // namespace

int
main()
{
    bench::benchHeader("Fig. 5 - per-pattern coverage (DPD)",
                       "Section 5.4, Observation 3");

    uint64_t capacity = bench::quickMode()
                            ? 512ull * 1024 * 1024       // 64 MB
                            : 4ull * 1024 * 1024 * 1024; // 512 MB
    int iterations = bench::scaled(800, 100);

    const Seconds span = daysToSec(6.0);
    const Seconds slot = span / iterations;
    const auto &patterns = dram::allDataPatterns();

    auto class_of = [](dram::DataPattern p) {
        // Group a pattern with its inverse.
        return std::min(static_cast<int>(p),
                        static_cast<int>(dram::inverseOf(p)));
    };

    // One task per pattern/inverse class, in first-appearance order.
    std::vector<std::array<dram::DataPattern, 2>> class_patterns;
    std::vector<int> classes;
    for (dram::DataPattern p : patterns) {
        int cls = class_of(p);
        bool seen = false;
        for (int c : classes)
            seen = seen || c == cls;
        if (!seen) {
            classes.push_back(cls);
            class_patterns.push_back({p, dram::inverseOf(p)});
        }
    }

    int step = std::max(iterations / 8, 1);
    auto curves = eval::runFleet(classes.size(), [&](size_t ci) {
        dram::ModuleConfig mc = bench::characterizationModule(
            dram::Vendor::B, 11, {2.3, 46.0}, capacity);
        dram::DramModule module(mc);
        testbed::SoftMcHost host(module, bench::instantHost());
        host.setAmbient(45.0);

        ClassCurve out;
        out.cls = classes[ci];
        std::set<dram::ChipFailure> bucket;
        for (int it = 0; it < iterations; ++it) {
            Seconds start = host.now();
            for (dram::DataPattern p : class_patterns[ci]) {
                host.writeAll(p);
                host.disableRefresh();
                host.wait(2.048);
                host.enableRefresh();
                auto fails = host.readAndCompareAll();
                bucket.insert(fails.begin(), fails.end());
            }
            Seconds used = host.now() - start;
            if (used < slot)
                host.wait(slot - used);
            if ((it + 1) % step == 0 || it + 1 == iterations)
                out.checkpoints.push_back(bucket);
        }
        return out;
    });

    size_t num_checkpoints = curves.front().checkpoints.size();
    std::vector<std::string> header = {"after iter", "total"};
    for (size_t ci = 0; ci < classes.size(); ++ci)
        header.push_back(
            dram::toString(static_cast<dram::DataPattern>(classes[ci])) +
            "+inv");
    TablePrinter table(header);
    std::set<dram::ChipFailure> final_total;
    for (size_t row = 0; row < num_checkpoints; ++row) {
        std::set<dram::ChipFailure> total;
        for (const ClassCurve &c : curves)
            total.insert(c.checkpoints[row].begin(),
                         c.checkpoints[row].end());
        std::vector<std::string> cells = {
            std::to_string(std::min((static_cast<int>(row) + 1) * step,
                                    iterations)),
            std::to_string(total.size())};
        for (const ClassCurve &c : curves) {
            double frac =
                static_cast<double>(c.checkpoints[row].size()) /
                static_cast<double>(total.size());
            cells.push_back(fmtPct(frac));
        }
        table.addRow(cells);
        if (row + 1 == num_checkpoints)
            final_total = std::move(total);
    }
    table.print(std::cout);

    int random_cls = class_of(dram::DataPattern::Random);
    double random_frac = 0.0;
    for (size_t ci = 0; ci < classes.size(); ++ci) {
        if (classes[ci] == random_cls)
            random_frac =
                static_cast<double>(
                    curves[ci].checkpoints.back().size()) /
                static_cast<double>(final_total.size());
    }
    std::cout << "\nShape check: random+inv reaches "
              << fmtPct(random_frac)
              << " of all failures - the highest single-pattern "
                 "coverage, but below 100% (Observation 3).\n";
    return 0;
}
