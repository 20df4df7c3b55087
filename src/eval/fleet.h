/**
 * @file
 * Fleet execution engine for chip-characterization sweeps.
 *
 * The paper's entire evaluation is a fleet sweep: hundreds of chips x
 * many (pattern, tREFI, temperature) rounds, where every chip is fully
 * independent (Sections 4-5). runFleet() batches such independent tasks
 * across worker threads the way SoftMC-style infrastructures batch
 * across modules, with three guarantees a plain thread pool lacks:
 *
 *  1. **Ordered result collection.** Task i's return value lands at
 *     index i of the result vector regardless of which worker ran it or
 *     when it finished, so downstream reductions (tables, aggregate
 *     stats) see results in task order.
 *  2. **Determinism across thread counts.** Tasks receive no shared
 *     mutable state from the engine; combined with per-task seed
 *     derivation (fleetSeed), a fleet produces bit-identical results at
 *     1, 2, or N threads (verified by tests/test_fleet.cc).
 *  3. **Exception propagation.** The first exception thrown by any task
 *     is captured, the fleet drains, and the exception is rethrown on
 *     the calling thread.
 *
 * The worker count resolves, in order: explicit FleetOptions::threads,
 * the REAPER_BENCH_THREADS environment variable, then hardware
 * concurrency. Tasks are handed out in contiguous chunks to bound
 * scheduling overhead when n is large (e.g. one job per simulator run in
 * the end-to-end sweep).
 */

#ifndef REAPER_EVAL_FLEET_H
#define REAPER_EVAL_FLEET_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/obs.h"

namespace reaper {
namespace eval {

/** Scheduling knobs of one runFleet call. */
struct FleetOptions
{
    /** Worker threads; 0 = REAPER_BENCH_THREADS, else hardware. */
    unsigned threads = 0;
    /** Tasks handed to a worker at a time; 0 = automatic. */
    size_t chunk = 0;
};

/**
 * Default fleet worker count: REAPER_BENCH_THREADS if set to a positive
 * integer, otherwise std::thread::hardware_concurrency() (min 1).
 */
unsigned fleetThreads();

/**
 * Derive the seed of task `task` from a fleet-level base seed. Stable
 * across thread counts and platforms; adjacent tasks get decorrelated
 * streams. Use this instead of seed+task arithmetic so per-chip
 * populations do not alias when a bench also offsets seeds itself.
 */
inline uint64_t
fleetSeed(uint64_t base, uint64_t task)
{
    return hashCombine(base, 0x9E3779B97F4A7C15ull + task);
}

namespace detail {

/** Chunk size balancing dispatch overhead against load balance. */
inline size_t
fleetChunk(size_t count, unsigned threads, size_t requested)
{
    if (requested > 0)
        return requested;
    // ~8 chunks per worker keeps the tail short while amortizing the
    // atomic fetch over several tasks.
    size_t target = static_cast<size_t>(threads) * 8;
    return std::max<size_t>(1, count / std::max<size_t>(target, 1));
}

} // namespace detail

/**
 * Run fn(i) for i in [0, n) across the fleet workers and return the
 * results in task order: out[i] == fn(i). fn must be invocable
 * concurrently for distinct i and its result type R must be movable.
 * Rethrows the first task exception after all workers drain (results
 * are discarded in that case; tasks not yet started are skipped).
 */
template <typename Fn,
          typename R = std::invoke_result_t<Fn &, size_t>>
std::vector<R>
runFleet(size_t n, Fn fn, FleetOptions opt = {})
{
    static_assert(!std::is_void_v<R>,
                  "runFleet tasks must return a value (a placeholder "
                  "will do for side-effect-only loops)");
    std::vector<std::optional<R>> slots(n);
    if (n == 0)
        return {};

    REAPER_OBS_SPAN(fleetSpan, "fleet.run");
    REAPER_OBS_COUNT("fleet.runs");
    REAPER_OBS_COUNT_N("fleet.tasks", n);

    unsigned workers = opt.threads ? opt.threads : fleetThreads();
    workers = static_cast<unsigned>(std::min<size_t>(workers, n));
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            slots[i].emplace(fn(i));
    } else {
        const size_t chunk = detail::fleetChunk(n, workers, opt.chunk);
        std::atomic<size_t> next{0};
        std::atomic<bool> failed{false};
        std::exception_ptr first_error;
        std::mutex error_mtx;
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned t = 0; t < workers; ++t) {
            pool.emplace_back([&]() {
                for (;;) {
                    if (failed.load(std::memory_order_relaxed))
                        return;
                    size_t lo = next.fetch_add(chunk);
                    if (lo >= n)
                        return;
                    size_t hi = std::min(n, lo + chunk);
                    REAPER_OBS_COUNT("fleet.chunks");
#ifndef REAPER_OBS_COMPILE_OUT
                    // Per-worker busy time (task execution only, not
                    // dispatch waits), accumulated fleet-wide.
                    uint64_t busy_start =
                        ::reaper::obs::countersOn()
                            ? ::reaper::obs::Tracer::nowNs()
                            : 0;
#endif
                    try {
                        REAPER_OBS_SPAN(chunkSpan, "fleet.chunk");
                        for (size_t i = lo; i < hi; ++i)
                            slots[i].emplace(fn(i));
                    } catch (...) {
                        std::lock_guard<std::mutex> lock(error_mtx);
                        if (!first_error)
                            first_error = std::current_exception();
                        failed.store(true, std::memory_order_relaxed);
                        return;
                    }
#ifndef REAPER_OBS_COMPILE_OUT
                    if (busy_start != 0)
                        REAPER_OBS_COUNT_N(
                            "fleet.busy_ns",
                            ::reaper::obs::Tracer::nowNs() -
                                busy_start);
#endif
                }
            });
        }
        for (auto &th : pool)
            th.join();
        if (first_error)
            std::rethrow_exception(first_error);
    }

    std::vector<R> out;
    out.reserve(n);
    for (auto &slot : slots)
        out.push_back(std::move(*slot));
    return out;
}

} // namespace eval
} // namespace reaper

#endif // REAPER_EVAL_FLEET_H
