/**
 * @file
 * System-level impact of extending the refresh interval.
 *
 * Runs a 4-core SPEC-like workload mix on the cycle-level memory
 * system (Table 2 configuration) at several refresh intervals and
 * prints throughput and DRAM power — the raw ingredients of the
 * paper's Fig. 13 before profiling overhead is applied.
 *
 * Usage: system_simulation [chip_gbit = 64]
 */

#include <cstdlib>
#include <iostream>

#include "common/table.h"
#include "common/units.h"
#include "power/drampower.h"
#include "sim/system.h"
#include "workload/synthetic.h"

using namespace reaper;

int
main(int argc, char **argv)
{
    unsigned chip_gbit = 64;
    if (argc > 1)
        chip_gbit = static_cast<unsigned>(std::atoi(argv[1]));

    // One random 4-benchmark mix (Section 7.2 methodology).
    auto mixes = workload::makeMixes(1, 2024);
    auto traces = workload::tracesForMix(mixes[0], 60000, 1);
    std::cout << "Workload: " << mixes[0].name << " on 4 cores, "
              << chip_gbit << " Gb chips\n\n";

    TablePrinter table({"tREFI", "IPC sum", "vs 64ms", "refresh cmds",
                        "DRAM power", "power vs 64ms"});

    power::DramPowerModel power_model(power::EnergyParams::lpddr4(),
                                      chip_gbit, 32, /*channels=*/4);
    double base_ipc = 0.0, base_power = 0.0;
    for (Seconds interval : {0.064, 0.256, 1.024, 0.0}) {
        sim::SystemConfig cfg;
        cfg.channels = 4;
        cfg.setDram(chip_gbit, interval);
        sim::System system(cfg, traces);
        system.run(800000); // 0.5 ms of memory time
        sim::SystemStats stats = system.stats();
        power::PowerBreakdown p = power_model.fromCounts(
            stats.channels.commands, stats.simulatedSeconds);
        if (interval == 0.064) {
            base_ipc = stats.ipcSum();
            base_power = p.total();
        }
        std::string label =
            interval > 0 ? fmtTime(interval) : "no refresh";
        table.addRow(
            {label, fmtF(stats.ipcSum(), 3),
             "+" + fmtPct(stats.ipcSum() / base_ipc - 1.0),
             std::to_string(stats.channels.commands.refab),
             fmtF(p.total(), 2) + "W (" + fmtPct(p.refreshFraction()) +
                 " refresh)",
             "-" + fmtPct(1.0 - p.total() / base_power)});
    }
    table.print(std::cout);
    std::cout << "\nLonger refresh intervals recover the throughput and"
              << " power that tRFC-long refresh blackouts consume;\n"
              << "REAPER is what makes operating there safe (see"
              << " examples/online_mitigation).\n";
    return 0;
}
