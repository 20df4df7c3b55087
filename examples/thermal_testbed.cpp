/**
 * @file
 * Full-realism testbed walkthrough: the thermally-controlled testing
 * infrastructure of Section 4.
 *
 * Drives the PID-controlled thermal chamber through the reliable
 * 40-55 C range, shows settle behaviour and jitter, and runs one
 * profiling round with the chamber in the loop while recording the
 * host command trace (the logic-analyzer view).
 */

#include <iostream>

#include "common/table.h"
#include "dram/data_pattern.h"
#include "dram/module.h"
#include "profiling/profiler.h"
#include "profiling/reach.h"
#include "testbed/softmc_host.h"

using namespace reaper;

int
main()
{
    dram::ModuleConfig mc;
    mc.numChips = 1;
    mc.chipCapacityBits = 2ull * 1024 * 1024 * 1024; // 256 MB
    mc.seed = 5;
    mc.envelope = {1.8, 52.0};
    dram::DramModule module(mc);

    testbed::HostConfig hc;
    hc.useChamber = true;
    hc.recordTrace = true;
    testbed::SoftMcHost host(module, hc);

    std::cout << "Stepping the chamber through the reliable range:\n";
    TablePrinter temps({"setpoint", "settled ambient", "DRAM temp",
                        "time elapsed"});
    for (double setpoint : {40.0, 45.0, 50.0}) {
        host.setAmbient(setpoint);
        temps.addRow({fmtF(setpoint, 1) + "C",
                      fmtF(module.chip(0).temperature(), 2) + "C",
                      fmtF(module.chip(0).temperature() + 15.0, 2) +
                          "C (held +15C)",
                      fmtTime(host.now())});
    }
    temps.print(std::cout);

    std::cout << "\nRunning one reach-profiling round at 45 C with the "
                 "chamber in the loop...\n";
    host.setAmbient(45.0);
    host.clearTrace();

    profiling::ReachConfig cfg;
    cfg.target = {0.512, 45.0};
    cfg.deltaRefreshInterval = 0.250;
    cfg.iterations = 1;
    cfg.patterns = {dram::DataPattern::Random,
                    dram::DataPattern::RandomInv};
    cfg.setTemperature = false; // already settled
    profiling::ProfilingResult result =
        profiling::ReachProfiler{}.run(host, cfg);

    std::cout << "Found " << result.profile.size() << " failing cells in "
              << fmtTime(result.runtime) << "\n\n";

    std::cout << "Host command trace (logic-analyzer view):\n";
    TablePrinter trace({"t", "command", "param"});
    for (const auto &cmd : host.trace()) {
        const char *name = "?";
        std::string param;
        switch (cmd.kind) {
          case testbed::CommandKind::SetAmbient:
            name = "SET_AMBIENT";
            param = fmtF(cmd.param, 1) + "C";
            break;
          case testbed::CommandKind::WritePattern:
            name = "WRITE_ALL";
            param = dram::toString(
                static_cast<dram::DataPattern>(cmd.param));
            break;
          case testbed::CommandKind::Restore:
            name = "RESTORE";
            break;
          case testbed::CommandKind::DisableRefresh:
            name = "REF_DISABLE";
            break;
          case testbed::CommandKind::EnableRefresh:
            name = "REF_ENABLE";
            break;
          case testbed::CommandKind::Wait:
            name = "WAIT";
            param = fmtTime(cmd.param);
            break;
          case testbed::CommandKind::ReadCompare:
            name = "READ_COMPARE";
            break;
          case testbed::CommandKind::Hammer:
            name = "HAMMER";
            param = fmtF(cmd.param, 0) + " acts";
            break;
        }
        trace.addRow({fmtTime(cmd.startTime), name, param});
    }
    trace.print(std::cout);
    return 0;
}
