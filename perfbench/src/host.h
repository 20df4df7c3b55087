/**
 * @file
 * Host facts and result output shared by every workload.
 */

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * What a result depends on besides the code: two results are
 * comparable only when their fingerprints are equal (a 1-core baseline
 * makes a 4-core run look like a regression).
 */
struct Fingerprint
{
    unsigned nproc = 0;
    std::string simd;      ///< dispatched simd::activeLevel()
    std::string buildType; ///< CMAKE_BUILD_TYPE of this binary
    std::string obsMode;   ///< REAPER_OBS mode in effect

    std::string json() const;
};

Fingerprint hostFingerprint();

/** A counter of the global obs registry (REAPER_OBS=counters). */
double obsCounter(const char *name);

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** FNV-1a over bytes, continuing from `h`. */
uint64_t fnv1a(const void *data, size_t len,
               uint64_t h = 0xcbf29ce484222325ull);

/**
 * Digest of every regular file in a directory (names and bytes, in
 * name order): equal digests mean byte-identical directories.
 */
uint64_t dirDigest(const std::string &dir);

/** 16-digit lowercase hex. */
std::string hex64(uint64_t v);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    /** Samples behind the value (0 = a single measurement). */
    uint64_t samples = 0;
    std::string note;
};

/** The outcome of one workload run. */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Why `correct` is false (printed, not in the JSON). */
    std::vector<std::string> problems;

    void add(const std::string &name, double value,
             const std::string &unit, uint64_t samples = 0,
             const std::string &note = "");
    /** Record a failed correctness gate. */
    void fail(const std::string &why);

    /** Human-readable lines, then the result JSON as the last line. */
    void print(const std::string &workload, const Fingerprint &fp) const;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_H
