/**
 * @file
 * Tests for the fleet execution engine: ordered result collection,
 * bit-identical results across worker counts (including a fig9-style
 * coverage/FPR evaluation), per-task seed derivation, and exception
 * propagation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include "dram/device.h"
#include "dram/module.h"
#include "dram/vendor_model.h"
#include "eval/fleet.h"
#include "profiling/brute_force.h"
#include "profiling/profile.h"
#include "profiling/profiler.h"
#include "testbed/softmc_host.h"

namespace reaper {
namespace eval {
namespace {

TEST(RunFleet, CollectsResultsInTaskOrder)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        auto out = runFleet(
            100, [](size_t i) { return i * i; },
            FleetOptions{threads});
        ASSERT_EQ(out.size(), 100u);
        for (size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], i * i);
    }
}

TEST(RunFleet, EmptyFleetReturnsEmpty)
{
    auto out = runFleet(0, [](size_t) { return 1; });
    EXPECT_TRUE(out.empty());
}

TEST(RunFleet, RunsEveryTaskExactlyOnce)
{
    std::vector<std::atomic<int>> hits(257);
    runFleet(
        hits.size(),
        [&](size_t i) {
            hits[i].fetch_add(1);
            return 0;
        },
        FleetOptions{8, /*chunk=*/3});
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(RunFleet, MoveOnlyResultsSupported)
{
    auto out = runFleet(10, [](size_t i) {
        return std::make_unique<size_t>(i);
    });
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(*out[i], i);
}

TEST(RunFleet, PropagatesTaskExceptions)
{
    for (unsigned threads : {1u, 8u}) {
        EXPECT_THROW(
            runFleet(
                64,
                [](size_t i) -> int {
                    if (i == 13)
                        throw std::runtime_error("task 13 failed");
                    return 0;
                },
                FleetOptions{threads}),
            std::runtime_error);
    }
}

TEST(FleetSeed, StableAndDistinctPerTask)
{
    EXPECT_EQ(fleetSeed(999, 0), fleetSeed(999, 0));
    EXPECT_NE(fleetSeed(999, 0), fleetSeed(999, 1));
    EXPECT_NE(fleetSeed(999, 0), fleetSeed(998, 0));
    // Derived chips get distinct populations.
    dram::DeviceConfig a, b;
    a.capacityBits = b.capacityBits = 512ull * 1024 * 1024;
    a.envelope = b.envelope = {2.5, 50.0};
    a.seed = fleetSeed(42, 0);
    b.seed = fleetSeed(42, 1);
    dram::DramDevice da(a), db(b);
    auto fa = da.trueFailingSet(2.0, 45.0);
    auto fb = db.trueFailingSet(2.0, 45.0);
    EXPECT_NE(fa, fb);
}

TEST(FleetThreads, EnvOverrideWins)
{
    ASSERT_EQ(setenv("REAPER_BENCH_THREADS", "3", 1), 0);
    EXPECT_EQ(fleetThreads(), 3u);
    ASSERT_EQ(unsetenv("REAPER_BENCH_THREADS"), 0);
    EXPECT_GE(fleetThreads(), 1u);
}

/**
 * The property the converted benches rely on: a fig9-style
 * coverage/FPR evaluation over a reach grid is bit-identical (exact
 * double equality) at 1, 2, and 8 worker threads.
 */
TEST(RunFleet, Fig9StyleRowBitIdenticalAcrossThreadCounts)
{
    dram::ModuleConfig mc;
    mc.numChips = 1;
    mc.chipCapacityBits = 512ull * 1024 * 1024; // 64 MB
    mc.vendor = dram::Vendor::B;
    mc.seed = 77;
    mc.envelope = {2.4, 56.0};
    mc.chipVariation = 0.0;

    profiling::Conditions target{1.024, 45.0};
    dram::DramModule truth_module(mc);
    auto truth = truth_module.trueFailingSet(target.refreshInterval,
                                             target.temperature);
    ASSERT_FALSE(truth.empty());

    std::vector<double> d_refi = {0.0, 0.25, 0.5};
    std::vector<double> d_temp = {0.0, 5.0};

    struct Score
    {
        double coverage, fpr;
    };
    auto evaluate = [&](unsigned threads) {
        return runFleet(
            d_temp.size() * d_refi.size(),
            [&](size_t i) {
                dram::DramModule module(mc);
                testbed::HostConfig hc;
                hc.useChamber = false;
                testbed::SoftMcHost host(module, hc);
                profiling::BruteForceConfig cfg;
                cfg.test = {target.refreshInterval +
                                d_refi[i % d_refi.size()],
                            target.temperature +
                                d_temp[i / d_refi.size()]};
                cfg.iterations = 2;
                profiling::ProfilingResult r =
                    profiling::BruteForceProfiler{}.run(host, cfg);
                profiling::ProfileMetrics m = profiling::scoreProfile(
                    r.profile, truth, r.runtime);
                return Score{m.coverage, m.falsePositiveRate};
            },
            FleetOptions{threads});
    };

    auto base = evaluate(1);
    for (unsigned threads : {2u, 8u}) {
        auto scores = evaluate(threads);
        ASSERT_EQ(scores.size(), base.size());
        for (size_t i = 0; i < scores.size(); ++i) {
            EXPECT_EQ(scores[i].coverage, base[i].coverage)
                << "grid cell " << i << " at " << threads
                << " threads";
            EXPECT_EQ(scores[i].fpr, base[i].fpr)
                << "grid cell " << i << " at " << threads
                << " threads";
        }
    }
    // Sanity: the (0, 0) cell profiles at the target itself and must
    // cover most of the truth set.
    EXPECT_GT(base[0].coverage, 0.5);
}

} // namespace
} // namespace eval
} // namespace reaper
