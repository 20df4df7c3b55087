/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench prints the rows/series of one paper table or figure.
 * Environment knobs:
 *  - REAPER_BENCH_QUICK=1 shrinks the statistical work (fewer
 *    chips/iterations) for smoke runs;
 *  - REAPER_BENCH_THREADS=N sets the fleet-engine worker count used by
 *    the characterization benches (default: hardware concurrency).
 *
 * The benches run their independent chips/conditions through
 * eval::runFleet, which collects results in task order: printed figures
 * are bit-identical regardless of REAPER_BENCH_THREADS (see
 * eval/fleet.h and tests/test_fleet.cc).
 */

#ifndef REAPER_BENCH_BENCH_UTIL_H
#define REAPER_BENCH_BENCH_UTIL_H

#include <cstdlib>
#include <iostream>
#include <string>

#include "dram/module.h"
#include "dram/retention_model.h"
#include "dram/vendor_model.h"
#include "eval/fleet.h"
#include "testbed/softmc_host.h"

namespace reaper {
namespace bench {

/** Whether the quick (smoke) mode is requested. */
inline bool
quickMode()
{
    const char *env = std::getenv("REAPER_BENCH_QUICK");
    return env != nullptr && std::string(env) != "0";
}

/** Scale a count down in quick mode. */
inline int
scaled(int full, int quick)
{
    return quickMode() ? quick : full;
}

/** Fleet worker count for this bench run (REAPER_BENCH_THREADS). */
inline unsigned
benchThreads()
{
    return eval::fleetThreads();
}

/** Standard characterization chip (fraction of the 2 GB reference). */
inline dram::ModuleConfig
characterizationModule(dram::Vendor vendor, uint64_t seed,
                       dram::TestEnvelope envelope,
                       uint64_t capacity_bits = 4ull * 1024 * 1024 *
                                                1024 /* 512 MB */)
{
    dram::ModuleConfig mc;
    mc.numChips = 1;
    mc.chipCapacityBits = capacity_bits;
    mc.vendor = vendor;
    mc.seed = seed;
    mc.envelope = envelope;
    return mc;
}

/** Instant-temperature host (the chamber is exercised in fig9/fig10). */
inline testbed::HostConfig
instantHost()
{
    testbed::HostConfig h;
    h.useChamber = false;
    return h;
}

/** Print the standard bench header. */
inline void
benchHeader(const std::string &experiment, const std::string &paper_ref)
{
    std::cout << "REAPER reproduction: " << experiment << "\n"
              << "Paper reference: " << paper_ref << "\n";
    if (quickMode())
        std::cout << "(REAPER_BENCH_QUICK=1: reduced statistics)\n";
    std::cout << "\n";
}

} // namespace bench
} // namespace reaper

#endif // REAPER_BENCH_BENCH_UTIL_H
