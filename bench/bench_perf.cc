/**
 * @file
 * Fleet-engine microbenchmark: wall-clock throughput of a multi-chip
 * brute-force characterization sweep at 1 vs. N worker threads, with a
 * bit-identity check across thread counts.
 *
 * Emits BENCH_fleet.json (in the current working directory) with
 * chips/sec, simulated cell reads/sec, and the measured speedups. The
 * host's hardware concurrency is recorded so results from
 * core-constrained machines (where no wall-clock speedup is physically
 * possible) are interpretable.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "dram/data_pattern.h"
#include "dram/module.h"
#include "dram/vendor_model.h"
#include "eval/fleet.h"
#include "profiling/brute_force.h"
#include "profiling/profile.h"
#include "profiling/profiler.h"
#include "testbed/softmc_host.h"

using namespace reaper;

namespace {

struct SweepResult
{
    double wallSeconds = 0.0;
    /** Order-sensitive hash of every chip's profile (addresses and
     *  sizes): equal hashes mean bit-identical results. */
    uint64_t checksum = 0;
};

struct SweepSpec
{
    int chips;
    uint64_t capacityBits;
    int iterations;
};

SweepResult
runSweep(const SweepSpec &spec, unsigned threads)
{
    std::vector<dram::Vendor> vendors = {
        dram::Vendor::A, dram::Vendor::B, dram::Vendor::C};
    profiling::Conditions target{1.024, 45.0};

    auto start = std::chrono::steady_clock::now();
    auto profiles = eval::runFleet(
        static_cast<size_t>(spec.chips),
        [&](size_t i) {
            dram::ModuleConfig mc = bench::characterizationModule(
                vendors[i % vendors.size()], eval::fleetSeed(999, i),
                {2.4, 52.0}, spec.capacityBits);
            dram::DramModule module(mc);
            testbed::SoftMcHost host(module, bench::instantHost());
            profiling::BruteForceConfig cfg;
            cfg.test = target;
            cfg.iterations = spec.iterations;
            profiling::ProfilingResult r =
                profiling::BruteForceProfiler{}.run(host, cfg);
            return r.profile;
        },
        eval::FleetOptions{threads});
    auto stop = std::chrono::steady_clock::now();

    SweepResult res;
    res.wallSeconds =
        std::chrono::duration<double>(stop - start).count();
    for (const auto &profile : profiles) {
        res.checksum = hashCombine(res.checksum, profile.size());
        for (const auto &f : profile.cells())
            res.checksum = hashCombine(res.checksum, f.addr);
    }
    return res;
}

std::string
hex(uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

} // namespace

int
main()
{
    bench::benchHeader("Fleet-engine throughput microbenchmark",
                       "perf harness (BENCH_fleet.json)");

    SweepSpec spec;
    spec.chips = bench::scaled(24, 6);
    spec.capacityBits = 2ull * 1024 * 1024 * 1024; // 256 MB per chip
    spec.iterations = bench::scaled(8, 4);

    // Simulated cell reads: every iteration reads the full chip once
    // per data pattern.
    double reads_per_chip =
        static_cast<double>(spec.iterations) *
        static_cast<double>(dram::allDataPatterns().size()) *
        static_cast<double>(spec.capacityBits);

    unsigned hw = std::thread::hardware_concurrency();
    std::cout << "Sweep: " << spec.chips << " chips x "
              << spec.capacityBits / (8 * 1024 * 1024) << " MB, "
              << spec.iterations
              << " iterations; hardware concurrency = " << hw << "\n\n";

    // On a single-core host a multi-thread sweep measures only
    // scheduler noise; run the 1-thread row and say so in the JSON
    // rather than publishing meaningless "speedups".
    bool sweep_skipped = hw == 1;
    std::vector<unsigned> thread_counts = {1, 2, 8};
    if (sweep_skipped) {
        thread_counts = {1};
        std::cout << "(single hardware thread: skipping the "
                     "multi-thread sweep rows)\n\n";
    } else {
        unsigned requested = bench::benchThreads();
        bool listed = false;
        for (unsigned t : thread_counts)
            listed = listed || t == requested;
        if (!listed)
            thread_counts.push_back(requested);
    }

    TablePrinter table({"threads", "wall time", "chips/sec",
                        "Mreads/sec", "speedup vs 1", "checksum"});
    std::vector<SweepResult> results;
    for (unsigned t : thread_counts) {
        SweepResult r = runSweep(spec, t);
        results.push_back(r);
        double chips_per_sec = spec.chips / r.wallSeconds;
        double mreads = spec.chips * reads_per_chip /
                        r.wallSeconds / 1e6;
        table.addRow({std::to_string(t),
                      fmtF(r.wallSeconds, 2) + "s",
                      fmtF(chips_per_sec, 2), fmtF(mreads, 1),
                      fmtF(results.front().wallSeconds / r.wallSeconds,
                           2) +
                          "x",
                      hex(r.checksum)});
    }
    table.print(std::cout);

    bool identical = true;
    for (const SweepResult &r : results)
        identical = identical && r.checksum == results.front().checksum;
    std::cout << "\nBit-identical across thread counts: "
              << (identical ? "yes" : "NO - DETERMINISM BUG") << "\n";
    if (hw < 2)
        std::cout << "(single hardware thread: wall-clock speedup is "
                     "not expected on this machine)\n";

    std::ofstream json("BENCH_fleet.json");
    json << "{\n"
         << "  \"bench\": \"fleet\",\n"
         << "  \"hardware_concurrency\": " << hw << ",\n"
         << "  \"sweep_skipped_single_core\": "
         << (sweep_skipped ? "true" : "false") << ",\n"
         << "  \"quick_mode\": "
         << (bench::quickMode() ? "true" : "false") << ",\n"
         << "  \"chips\": " << spec.chips << ",\n"
         << "  \"chip_capacity_mb\": "
         << spec.capacityBits / (8 * 1024 * 1024) << ",\n"
         << "  \"iterations\": " << spec.iterations << ",\n"
         << "  \"runs\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const SweepResult &r = results[i];
        json << "    {\"threads\": " << thread_counts[i]
             << ", \"wall_seconds\": " << r.wallSeconds
             << ", \"chips_per_sec\": " << spec.chips / r.wallSeconds
             << ", \"cell_reads_per_sec\": "
             << spec.chips * reads_per_chip / r.wallSeconds
             << ", \"speedup_vs_1\": "
             << results.front().wallSeconds / r.wallSeconds
             << ", \"checksum\": \"" << hex(r.checksum) << "\"}"
             << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"bit_identical\": " << (identical ? "true" : "false")
         << "\n}\n";
    std::cout << "\nWrote BENCH_fleet.json\n";
    return identical ? 0 : 1;
}
