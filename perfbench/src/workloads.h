/**
 * @file
 * The benchmark's workloads. Each runs one seeded input set against the
 * library's public API, checks the outputs, and fills a Report with its
 * end-to-end metrics (untraced run) or its per-layer metrics (traced
 * run: REAPER_OBS=counters plus the benchmark's span ledger).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>

#include "host.h"

namespace perfbench {

struct RunContext
{
    uint64_t seed = 1;
    /** Length of the measured phase. */
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for stores and campaigns (created, removed). */
    std::string workDir;
    /** Where the traced run writes its spans (JSON lines). */
    std::string spanFile;
    unsigned nproc = 1;
};

/** Times one set-up several times; the median is setup_s. */
constexpr int kSetupRepeats = 9;

/**
 * Closed-loop workloads measure at least this many units even past
 * --seconds on a slow host: 20 samples are the fewest for which the
 * reported tail (the highest percentile with 10 samples beyond it) is
 * defined.
 */
constexpr size_t kMinSamples = 20;

Report runReprofile(const RunContext &ctx);
Report runServe(const RunContext &ctx, bool churn);
Report runFig13(const RunContext &ctx);

/** Monotonic seconds. */
double nowSeconds();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
