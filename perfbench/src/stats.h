/**
 * @file
 * Exact order statistics over the benchmark's own samples.
 *
 * obs::Histogram buckets step ~1.33x, so a percentile read from it
 * cannot repeat within a tenth between runs. Everything the benchmark
 * reports is computed here from the raw samples instead.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank percentile: the smallest sample with at least q*n
 * samples at or below it (q in [0, 1]). The result is always one of the
 * samples. 0 for an empty input.
 */
double percentile(std::vector<double> samples, double q);

/** Median (mean of the two middle samples for even n); 0 when empty. */
double median(std::vector<double> samples);

/**
 * The highest of p50/p90/p99 that still has at least `beyond` samples
 * strictly above its rank in n samples; 0 when even p50 has fewer
 * (n < 2 * beyond).
 */
double tailQuantile(size_t n, size_t beyond = 10);

/** Summary of one latency sample set. */
struct LatencySummary
{
    size_t n = 0;
    double p50 = 0;
    double tailQ = 0; ///< tailQuantile(n)
    double tail = 0;  ///< percentile(samples, tailQ)
};

LatencySummary summarize(const std::vector<double> &samples);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
