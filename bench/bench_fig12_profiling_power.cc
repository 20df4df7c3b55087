/**
 * @file
 * Fig. 12: average DRAM power consumed by online profiling across
 * reprofiling intervals and chip sizes (32-chip modules, 16 iterations
 * of 6 data patterns at 1024 ms).
 *
 * Shape reproduction: profiling power scales linearly with chip size
 * and inversely with the reprofiling interval, and is a small fraction
 * of total DRAM power. (Absolute scale deviates from the paper's
 * printed nanowatts; see EXPERIMENTS.md.)
 */

#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "common/units.h"
#include "power/drampower.h"

using namespace reaper;

int
main()
{
    bench::benchHeader("Fig. 12 - DRAM power of online profiling",
                       "Section 7.3.1");

    std::vector<double> interval_hours = {0.125, 0.25, 0.5, 1, 2,
                                          4,     8,    16};
    std::vector<unsigned> chip_sizes = {8, 16, 32, 64};

    for (bool reaper_kind : {false, true}) {
        std::cout << "Profiler: "
                  << (reaper_kind ? "REAPER" : "brute-force") << "\n";
        std::vector<std::string> header = {"reprofile interval"};
        for (unsigned gbit : chip_sizes)
            header.push_back(std::to_string(gbit) + "Gb x32");
        header.push_back("(64Gb: % of DRAM power)");
        TablePrinter table(header);
        for (double hours : interval_hours) {
            std::vector<std::string> row = {fmtF(hours, 3) + "h"};
            double frac64 = 0;
            for (unsigned gbit : chip_sizes) {
                power::DramPowerModel m(power::EnergyParams::lpddr4(),
                                        gbit, 32);
                double p = m.profilingPower(16, 6, hoursToSec(hours));
                if (reaper_kind)
                    p /= 2.5; // fewer passes per round
                row.push_back(fmtF(p * 1e3, 2) + "mW");
                if (gbit == 64) {
                    // Typical total DRAM power of the 64 Gb module at
                    // the default refresh interval.
                    double total = m.backgroundPower() +
                                   m.refreshPower(0.064) + 1.0;
                    frac64 = p / total;
                }
            }
            row.push_back(fmtPct(frac64, 2));
            table.addRow(row);
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "Shape check: power doubles per chip-size doubling and "
                 "halves per interval doubling; it stays a small\n"
                 "fraction of DRAM power except at extreme reprofiling "
                 "frequencies (Section 7.3.2, observation 4).\n";
    return 0;
}
