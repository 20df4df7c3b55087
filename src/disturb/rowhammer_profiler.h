/**
 * @file
 * Row-disturbance (RowHammer) vulnerability profiler.
 *
 * Finds, for every row of the module under test, the minimum hammer
 * count at which disturbance flips a bit (HCfirst), by binary-searching
 * the activation count through the host's hammer op. Rows are probed in
 * interference-free waves (disturb::PatternBuilder), so one probe cycle
 * — write pattern, hammer every unresolved victim's aggressors at its
 * bracket midpoint, one full-module read — advances the search of a
 * whole batch of rows at once. Probes run with refresh enabled: no
 * retention exposure accrues, so every read-compare mismatch is a
 * disturbance flip.
 *
 * The profiler registers in the string-keyed factory as "rowhammer" and
 * emits a RetentionProfile-compatible cell set (the union of every cell
 * observed to flip at any probed count, i.e. the cells vulnerable at or
 * below the search maximum), so campaign stores, the v2 binary format,
 * the refresh directory, and REAPER-NET serving all work unchanged.
 * Like every profiler it is deterministic: the result is a pure
 * function of the module and the spec, with no internal randomness.
 */

#ifndef REAPER_DISTURB_ROWHAMMER_PROFILER_H
#define REAPER_DISTURB_ROWHAMMER_PROFILER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "disturb/pattern_builder.h"
#include "profiling/profile.h"
#include "profiling/profiler.h"
#include "testbed/softmc_host.h"

namespace reaper {
namespace profiling {

/** Configuration of one disturbance-profiling round. */
struct RowHammerConfig
{
    /** Conditions stamped on the emitted profile (and the chamber
     *  setpoint when setTemperature is on). */
    Conditions target{};
    /** Aggressor sidedness (see disturb::PatternBuilder). */
    int sides = 2;
    /** Hammer-count search bracket: probe at most countMax and assume
     *  counts below countMin flip nothing. */
    uint64_t countMax = 131072;
    uint64_t countMin = 1024;
    /** Stop once a row's bracket is at most this wide. */
    uint64_t resolution = 2048;
    /** Data patterns hammered per row (DPD for disturbance). */
    std::vector<dram::DataPattern> patterns = {
        dram::DataPattern::RowStripe, dram::DataPattern::RowStripeInv};
    /** Command the chamber to the target temperature first. */
    bool setTemperature = true;
    /** Flat rows to probe; empty probes every row of the module. */
    std::vector<uint64_t> victimRows;
    /** Optional per-wave observer; returning false stops early. */
    std::function<bool(int, const RetentionProfile &)> onWave;
};

/** Per-row search outcome: the minimum flipping hammer count found. */
struct RowMinCount
{
    uint64_t row = 0;      ///< flat (bank-major) row index
    uint64_t minCount = 0; ///< smallest count observed to flip the row
};

/** Result of one disturbance round, beyond the profile itself. */
struct RowHammerRunResult
{
    ProfilingResult base;
    /** Vulnerable rows with their HCfirst estimates, sorted by row;
     *  rows that survived countMax on every pattern are absent. */
    std::vector<RowMinCount> vulnerableRows;
    /** Probe cycles issued (write + hammer batch + read each). */
    int probeCycles = 0;
};

/** Factory name "rowhammer": minimum-hammer-count profiler. */
class RowHammerProfiler : public Profiler
{
  public:
    RowHammerProfiler() = default;
    /** Configure from a mechanism-agnostic spec (factory path). */
    explicit RowHammerProfiler(const ProfilerSpec &spec);

    std::string name() const override { return "rowhammer"; }

    common::Expected<ProfilingResult>
    profile(testbed::SoftMcHost &host,
            const Conditions &target) const override;

    /** Run one round with full control and the per-row result. */
    RowHammerRunResult run(testbed::SoftMcHost &host,
                           const RowHammerConfig &cfg) const;

  private:
    ProfilerSpec spec_;
};

/**
 * Idempotently register "rowhammer" in the profiler factory. Including
 * this header is enough: the inline
 * variable below runs the registration during static initialization of
 * every including translation unit, which also keeps the linker from
 * dropping this library's objects from static-archive links.
 */
void ensureRowHammerRegistered();

namespace detail {
[[maybe_unused]] inline const bool kRowHammerRegistered =
    (ensureRowHammerRegistered(), true);
} // namespace detail

} // namespace profiling
} // namespace reaper

#endif // REAPER_DISTURB_ROWHAMMER_PROFILER_H
