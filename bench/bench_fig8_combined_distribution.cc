/**
 * @file
 * Fig. 8: effect of temperature and refresh interval on the COMBINED
 * failure distribution of a chip's failing cells - the mean failure
 * probability with a +/- one-combined-sigma band, per temperature,
 * against the refresh interval.
 *
 * Two conclusions (Section 5.5): a higher temperature or a longer
 * interval makes the typical cell more likely to fail, and the two
 * knobs are interchangeable (at 45 C, ~1 s of interval ~ ~10 C).
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "dram/retention_model.h"
#include "dram/vendor_model.h"
#include "eval/fleet.h"

using namespace reaper;

int
main()
{
    bench::benchHeader("Fig. 8 - combined failure distribution",
                       "Section 5.5");

    // Sample the failing-cell population of a representative chip.
    dram::RetentionModel model{dram::vendorParams(dram::Vendor::B)};
    Rng rng(55);
    dram::TestEnvelope env{3.2, 56.0};
    uint64_t bits = 2ull * 1024 * 1024 * 1024; // 256 MB sample
    auto cells = model.sampleWeakPopulation(bits, env, rng);
    std::cout << "Population: " << cells.size()
              << " failing cells of a representative vendor-B chip\n\n";

    std::vector<Seconds> grid = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
    std::vector<std::string> header = {"temperature"};
    for (Seconds t : grid)
        header.push_back(fmtTime(t));
    TablePrinter table(header);

    // Each (temperature, interval) cell scans the shared (read-only)
    // population; fan the scans out as one fleet.
    std::vector<Celsius> temps = {40.0, 45.0, 50.0, 55.0};
    auto entries = eval::runFleet(
        temps.size() * grid.size(), [&](size_t i) {
            Celsius temp = temps[i / grid.size()];
            Seconds t = grid[i % grid.size()];
            // Mean +/- std of per-cell failure probabilities over the
            // cells that are marginal at these conditions. The
            // narrowing factor is hoisted out of the per-cell loop.
            RunningStats p;
            double t_equiv = t * model.equivalentExposureScale(temp);
            double narrow = model.sigmaNarrowScale(temp);
            for (const auto &c : cells)
                p.add(model.failureProbabilityNarrowed(c, t_equiv,
                                                       narrow, 1.0));
            return fmtF(p.mean(), 3) + "+-" + fmtF(p.stddev(), 2);
        });

    for (size_t ti = 0; ti < temps.size(); ++ti) {
        std::vector<std::string> row = {fmtF(temps[ti], 0) + "C"};
        for (size_t gi = 0; gi < grid.size(); ++gi)
            row.push_back(entries[ti * grid.size() + gi]);
        table.addRow(row);
    }
    table.print(std::cout);

    // The interchange rate: how much interval equals +10 C at 45 C?
    double scale10 = model.equivalentExposureScale(55.0) /
                     model.equivalentExposureScale(45.0);
    std::cout << "\nInterchangeability: +10C multiplies effective "
                 "exposure by "
              << fmtF(scale10, 2) << "x; at a ~2 s interval that is "
              << fmtTime(2.0 * (scale10 - 1.0))
              << " of extra refresh interval (paper: ~1 s per 10 C at "
                 "45 C).\n"
              << "Shape check: every row increases with the interval, "
                 "every column increases with temperature.\n";
    return 0;
}
