/**
 * @file
 * Fig. 11: proportion of total system time spent profiling, for
 * brute-force profiling vs REAPER, across online reprofiling intervals
 * (0.125 h - 16 h) and chip sizes (8-64 Gb, 32-chip modules), with
 * 16 iterations of 6 data patterns at a 1024 ms profiling interval.
 */

#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "common/units.h"
#include "eval/overhead.h"

using namespace reaper;

int
main()
{
    bench::benchHeader(
        "Fig. 11 - system time spent profiling",
        "Section 7.3.1 (Eq. 9); anchor: 64Gb @ 4h -> 22.7% brute, "
        "9.1% REAPER");

    std::vector<double> interval_hours = {0.125, 0.25, 0.5, 1, 2,
                                          4,     8,    16};
    std::vector<unsigned> chip_sizes = {8, 16, 32, 64};

    for (eval::ProfilerKind kind :
         {eval::ProfilerKind::BruteForce, eval::ProfilerKind::Reaper}) {
        std::cout << "Profiler: " << eval::toString(kind) << "\n";
        std::vector<std::string> header = {"reprofile interval"};
        for (unsigned gbit : chip_sizes)
            header.push_back(std::to_string(gbit) + "Gb x32");
        TablePrinter table(header);
        for (double hours : interval_hours) {
            std::vector<std::string> row = {fmtF(hours, 3) + "h"};
            for (unsigned gbit : chip_sizes) {
                eval::OverheadConfig cfg;
                cfg.targetRefreshInterval = 1.024;
                cfg.chipGbit = gbit;
                cfg.numChips = 32;
                cfg.iterations = 16;
                cfg.numPatterns = 6;
                double ov = eval::overheadForInterval(
                    cfg, kind, hoursToSec(hours));
                row.push_back(fmtPct(ov));
            }
            table.addRow(row);
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    std::cout << "Shape check: overhead grows with chip size and with "
                 "reprofiling frequency; REAPER = brute / 2.5.\n";
    return 0;
}
