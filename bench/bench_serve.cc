/**
 * @file
 * Profile-serving benchmark: the speedup of compiled RefreshDirectory
 * lookups over naive per-query RetentionProfile::cells() scans, the
 * QueryEngine's QPS and latency percentiles vs. worker count on a
 * cache-hot zipfian workload, and the ProfileCache hit rate vs.
 * capacity.
 *
 * Emits BENCH_serve.json (in the current working directory). The
 * host's hardware concurrency is recorded so results from
 * core-constrained machines (where no wall-clock worker scaling is
 * physically possible) are interpretable — same convention as
 * BENCH_fleet.json.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "campaign/profile_store.h"
#include "common/rng.h"
#include "common/table.h"
#include "dram/module.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "obs/obs.h"
#include "profiling/profile.h"
#include "serve/metrics.h"
#include "serve/profile_cache.h"
#include "serve/query_engine.h"
#include "serve/workload.h"

namespace fs = std::filesystem;

using namespace reaper;

namespace {

constexpr uint64_t kRowBits = 2048ull * 8;
constexpr uint64_t kRowsPerChip = 1ull << 16;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

profiling::RetentionProfile
syntheticProfile(uint64_t seed, size_t cells)
{
    Rng rng(seed);
    std::vector<dram::ChipFailure> v;
    v.reserve(cells);
    for (size_t i = 0; i < cells; ++i)
        v.push_back({0, rng.uniformInt(kRowsPerChip * kRowBits)});
    profiling::RetentionProfile p({1.024, 45.0});
    p.add(v);
    return p;
}

/** Naive reference: answer refreshBinFor by scanning the profile. */
uint32_t
naiveBinFor(const profiling::RetentionProfile &p, uint32_t chip,
            uint64_t row, uint32_t default_bin)
{
    for (const auto &f : p.cells())
        if (f.chip == chip && f.addr / kRowBits == row)
            return 0;
    return default_bin;
}

struct EngineRun
{
    unsigned workers = 0;
    double wallSeconds = 0.0;
    double qps = 0.0;
    double hitRate = 0.0;
    serve::MetricsSnapshot metrics;
};

/**
 * Closed-loop engine run: `producers` threads push pre-generated
 * zipfian batches (retrying on backpressure) through an engine with
 * `workers` workers and a pre-warmed cache.
 */
EngineRun
runEngine(const campaign::ProfileStore &store,
          const std::vector<std::string> &keys, unsigned workers,
          unsigned producers, size_t requests)
{
    serve::CacheConfig cache_cfg;
    cache_cfg.directory.rowBits = kRowBits;
    serve::ProfileCache cache(store, cache_cfg);
    for (const auto &key : keys) // pre-warm: the workload is cache-hot
        cache.get(key);

    // Pre-generate per-producer streams so generation cost stays out
    // of the measured loop. Seeds differ per producer; the union of
    // streams is identical across worker counts.
    std::vector<std::vector<serve::Request>> streams(producers);
    for (unsigned p = 0; p < producers; ++p) {
        serve::WorkloadConfig wc;
        wc.keys = keys;
        wc.rowsPerChip = kRowsPerChip;
        serve::Workload workload(wc, 4242 + p);
        streams[p].reserve(requests / producers);
        for (size_t i = 0; i < requests / producers; ++i)
            streams[p].push_back(workload.next());
    }

    serve::Metrics metrics;
    serve::EngineConfig engine_cfg;
    engine_cfg.workers = workers;
    engine_cfg.queueCapacity = 1 << 14;
    engine_cfg.batchSize = 64;
    // No-op sink: the bench measures the serving path, not response
    // collection.
    serve::QueryEngine engine(cache, engine_cfg, &metrics,
                              [](const serve::Response &) {});

    double start = now();
    std::vector<std::thread> pool;
    for (unsigned p = 0; p < producers; ++p) {
        pool.emplace_back([&, p] {
            std::vector<serve::Request> &stream = streams[p];
            size_t off = 0;
            while (off < stream.size()) {
                size_t taken = engine.trySubmitBatch(stream, off);
                off += taken;
                if (taken == 0)
                    std::this_thread::yield(); // backpressure
            }
        });
    }
    for (auto &producer : pool)
        producer.join();
    engine.drain();
    double wall = now() - start;

    EngineRun run;
    run.workers = workers;
    run.wallSeconds = wall;
    run.qps = static_cast<double>(engine.completed()) / wall;
    run.metrics = metrics.snapshot();
    uint64_t answered = run.metrics.hits + run.metrics.misses +
                        run.metrics.negativeHits +
                        run.metrics.unknown;
    run.hitRate = answered == 0 ? 0.0
                                : static_cast<double>(
                                      run.metrics.hits) /
                                      static_cast<double>(answered);
    return run;
}

struct SweepPoint
{
    double fraction = 0.0;
    size_t capacityBytes = 0;
    double hitRate = 0.0;
    double qps = 0.0;
    uint64_t evictions = 0;
};

} // namespace

int
main()
{
    bench::benchHeader(
        "Profile-serving benchmark (directory / cache / engine)",
        "serving layer (BENCH_serve.json); RAIDR-style lookup "
        "hot path");

    const size_t num_profiles = bench::scaled(24, 8);
    const size_t cells_per_profile = bench::scaled(50000, 8000);
    const size_t naive_queries = bench::scaled(2000, 400);
    const size_t cached_queries = bench::scaled(2000000, 200000);
    const size_t engine_requests = bench::scaled(1000000, 100000);

    // ---- Store setup (scratch directory) ----
    fs::path store_dir =
        fs::temp_directory_path() / "reaper_bench_serve_store";
    fs::remove_all(store_dir);
    campaign::ProfileStore store(store_dir.string());
    std::vector<std::string> keys;
    for (size_t i = 0; i < num_profiles; ++i) {
        std::string key = campaign::ProfileStore::profileKey(
            "chip-" + std::to_string(i), {1.024, 45.0});
        store.commit(key,
                     syntheticProfile(5000 + i, cells_per_profile));
        keys.push_back(key);
    }
    std::cout << "Store: " << num_profiles << " profiles x "
              << cells_per_profile << " cells\n\n";

    // ---- Part 1: naive scan vs compiled directory ----
    serve::CacheConfig cache_cfg;
    cache_cfg.directory.rowBits = kRowBits;
    serve::ProfileCache cache(store, cache_cfg);
    uint32_t default_bin =
        static_cast<uint32_t>(
            cache_cfg.directory.binIntervals.size()) -
        1;

    serve::WorkloadConfig wc;
    wc.keys = keys;
    wc.rowsPerChip = kRowsPerChip;

    // Naive: load the profile, scan every cell, per query.
    std::vector<profiling::RetentionProfile> loaded(keys.size());
    for (size_t i = 0; i < keys.size(); ++i)
        loaded[i] = store.load(keys[i]).value();
    serve::Workload naive_wl(wc, 99);
    uint64_t naive_sink = 0;
    double t0 = now();
    for (size_t q = 0; q < naive_queries; ++q) {
        serve::Request req = naive_wl.next();
        size_t idx = 0; // resolve key -> profile (cheap vs the scan)
        for (size_t i = 0; i < keys.size(); ++i)
            if (keys[i] == req.key) {
                idx = i;
                break;
            }
        naive_sink += naiveBinFor(loaded[idx], req.chip, req.row,
                                  default_bin);
    }
    double naive_qps = static_cast<double>(naive_queries) / (now() - t0);

    // Cached: compiled directory point lookups through the hot cache.
    for (const auto &key : keys)
        cache.get(key);
    serve::Workload cached_wl(wc, 99);
    uint64_t cached_sink = 0;
    t0 = now();
    for (size_t q = 0; q < cached_queries; ++q) {
        serve::Request req = cached_wl.next();
        cached_sink +=
            cache.get(req.key).dir->refreshBinFor(req.chip, req.row);
    }
    double cached_qps =
        static_cast<double>(cached_queries) / (now() - t0);
    double speedup = cached_qps / naive_qps;

    // Cross-check on a shared prefix of the stream: the compiled
    // answers must equal the naive ones (same seed -> same queries).
    bool answers_match = true;
    {
        serve::Workload wa(wc, 99), wb(wc, 99);
        for (size_t q = 0; q < naive_queries; ++q) {
            serve::Request ra = wa.next(), rb = wb.next();
            size_t idx = 0;
            for (size_t i = 0; i < keys.size(); ++i)
                if (keys[i] == ra.key) {
                    idx = i;
                    break;
                }
            uint32_t naive_bin = naiveBinFor(loaded[idx], ra.chip,
                                             ra.row, default_bin);
            uint32_t dir_bin = cache.get(rb.key).dir->refreshBinFor(
                rb.chip, rb.row);
            answers_match = answers_match && naive_bin == dir_bin;
        }
    }

    TablePrinter lookup_table({"path", "QPS", "speedup"});
    lookup_table.addRow({"naive cells() scan", fmtF(naive_qps, 0), "1x"});
    lookup_table.addRow({"cached directory", fmtF(cached_qps, 0),
                         fmtF(speedup, 1) + "x"});
    lookup_table.print(std::cout);
    // Printing the accumulated bins keeps both measured loops live
    // (a dead sink would let the compiler delete the naive scan).
    std::cout << "Answers match naive scan: "
              << (answers_match ? "yes" : "NO - BUG")
              << "  (bin sums: naive " << naive_sink << ", cached "
              << cached_sink << ")\n\n";

    // ---- Part 2: engine QPS + latency vs worker count ----
    unsigned hw = std::thread::hardware_concurrency();
    const unsigned producers = 2;
    // Single-core hosts can't scale workers; publish only the
    // 1-worker row and flag the skip in the JSON (same honesty
    // convention as BENCH_fleet.json).
    bool sweep_skipped = hw == 1;
    std::vector<unsigned> worker_counts =
        sweep_skipped ? std::vector<unsigned>{1}
                      : std::vector<unsigned>{1, 2, 4};
    if (sweep_skipped)
        std::cout << "(single hardware thread: skipping the "
                     "multi-worker sweep rows)\n";
    std::vector<EngineRun> runs;
    TablePrinter engine_table({"workers", "QPS", "hit rate", "p50 us",
                               "p95 us", "p99 us", "speedup vs 1"});
    for (unsigned w : worker_counts) {
        EngineRun run =
            runEngine(store, keys, w, producers, engine_requests);
        runs.push_back(run);
        engine_table.addRow(
            {std::to_string(w), fmtF(run.qps, 0),
             fmtF(run.hitRate, 3), fmtF(run.metrics.p50Us, 2),
             fmtF(run.metrics.p95Us, 2), fmtF(run.metrics.p99Us, 2),
             fmtF(run.qps / runs.front().qps, 2) + "x"});
    }
    std::cout << "Engine (closed loop, " << producers
              << " producers, cache-hot zipf):\n";
    engine_table.print(std::cout);
    if (hw < 4)
        std::cout << "(hardware concurrency " << hw
                  << ": worker scaling is core-limited on this "
                     "machine)\n";
    std::cout << "\n";

    // ---- Part 3: cache capacity sweep ----
    // A dedicated store with smaller profiles: the sweep deliberately
    // thrashes the cache, and each miss re-parses a profile file —
    // with the big lookup-bench profiles that would dominate the run.
    fs::path sweep_dir =
        fs::temp_directory_path() / "reaper_bench_serve_sweep";
    fs::remove_all(sweep_dir);
    campaign::ProfileStore sweep_store(sweep_dir.string());
    std::vector<std::string> sweep_keys;
    const size_t sweep_cells = bench::scaled(4000, 2000);
    for (size_t i = 0; i < num_profiles; ++i) {
        std::string key = campaign::ProfileStore::profileKey(
            "sweep-chip-" + std::to_string(i), {1.024, 45.0});
        sweep_store.commit(key, syntheticProfile(7000 + i, sweep_cells));
        sweep_keys.push_back(key);
    }
    serve::WorkloadConfig sweep_wc;
    sweep_wc.keys = sweep_keys;
    sweep_wc.rowsPerChip = kRowsPerChip;
    size_t working_set = 0;
    {
        serve::CacheConfig cc;
        cc.directory.rowBits = kRowBits;
        serve::ProfileCache probe(sweep_store, cc);
        for (const auto &key : sweep_keys)
            working_set += probe.get(key).dir->sizeBytes();
    }
    std::vector<double> fractions = {0.125, 0.25, 0.5, 1.25};
    std::vector<SweepPoint> sweep;
    TablePrinter sweep_table(
        {"capacity", "of working set", "hit rate", "QPS", "evictions"});
    const size_t sweep_queries = bench::scaled(20000, 4000);
    for (double frac : fractions) {
        serve::CacheConfig cc;
        cc.directory.rowBits = kRowBits;
        cc.shards = 4;
        cc.capacityBytes =
            static_cast<size_t>(frac * static_cast<double>(working_set));
        serve::ProfileCache sized(sweep_store, cc);
        serve::Workload sweep_wl(sweep_wc, 7);
        uint64_t sink = 0;
        double start = now();
        for (size_t q = 0; q < sweep_queries; ++q) {
            serve::Request req = sweep_wl.next();
            const auto result = sized.get(req.key);
            if (result.dir)
                sink += result.dir->isRowWeak(req.chip, req.row);
        }
        double wall = now() - start;
        serve::CacheCounters c = sized.counters();
        SweepPoint pt;
        pt.fraction = frac;
        pt.capacityBytes = cc.capacityBytes;
        pt.hitRate = static_cast<double>(c.hits) /
                     static_cast<double>(c.hits + c.misses);
        pt.qps = static_cast<double>(sweep_queries) / wall;
        pt.evictions = c.evictions;
        sweep.push_back(pt);
        sweep_table.addRow({fmtF(static_cast<double>(cc.capacityBytes) /
                                     (1024.0 * 1024.0), 1) + " MB",
                            fmtF(frac * 100, 0) + "%",
                            fmtF(pt.hitRate, 3), fmtF(pt.qps, 0),
                            std::to_string(pt.evictions)});
        (void)sink;
    }
    std::cout << "Cache capacity sweep (zipf, " << sweep_queries
              << " queries):\n";
    sweep_table.print(std::cout);
    std::cout << "\n";

    // ---- Part 4: over-the-wire serving (REAPER-NET daemon) ----
    // The same zipfian workload, but through real loopback TCP: the
    // daemon's poll loop, the framed binary protocol, and the
    // loadgen's pipelined closed loop. Measures end-to-end QPS and
    // batch round-trip latency vs. connection count. Single-core
    // hosts publish only the 1-connection row (the client threads
    // and the daemon share one core; scaling rows would be noise).
    const size_t net_requests = bench::scaled(200000, 30000);
    const unsigned net_pipeline = 4;
    const size_t net_batch = 64;
    std::vector<unsigned> conn_counts =
        sweep_skipped ? std::vector<unsigned>{1}
                      : std::vector<unsigned>{1, 2, 4};
    std::vector<net::LoadgenResult> net_runs;
    std::vector<unsigned> net_conns_run;
    bool net_clean = true;
    {
        serve::CacheConfig net_cache_cfg;
        net_cache_cfg.directory.rowBits = kRowBits;
        serve::ProfileCache net_cache(store, net_cache_cfg);
        for (const auto &key : keys)
            net_cache.get(key); // pre-warm, as in Part 2
        serve::EngineConfig net_engine_cfg;
        net_engine_cfg.workers = 2;
        net_engine_cfg.queueCapacity = 1 << 14;
        net_engine_cfg.batchSize = 64;
        net::ServerConfig server_cfg;
        server_cfg.keys = keys;
        net::Server server(net_cache, net_engine_cfg, server_cfg);
        auto started = server.start();
        TablePrinter net_table({"conns", "QPS", "p50 us", "p95 us",
                                "p99 us", "rejected"});
        if (!started) {
            std::cout << "over-the-wire bench skipped: "
                      << started.error().describe() << "\n";
            net_clean = false;
        } else {
            for (unsigned conns : conn_counts) {
                net::LoadgenConfig lg;
                lg.port = server.port();
                lg.connections = conns;
                lg.pipeline = net_pipeline;
                lg.batch = net_batch;
                lg.totalRequests = net_requests;
                lg.workload.keys = keys;
                lg.workload.rowsPerChip = kRowsPerChip;
                auto result = net::runLoadgen(lg);
                if (!result) {
                    std::cout << "loadgen failed: "
                              << result.error().describe() << "\n";
                    net_clean = false;
                    break;
                }
                net_clean = net_clean && result.value().clean();
                net_runs.push_back(result.value());
                net_conns_run.push_back(conns);
                const net::LoadgenResult &r = result.value();
                net_table.addRow({std::to_string(conns),
                                  fmtF(r.qps, 0), fmtF(r.p50Us, 1),
                                  fmtF(r.p95Us, 1), fmtF(r.p99Us, 1),
                                  std::to_string(r.rejected)});
            }
            server.stop();
            server.join();
        }
        std::cout << "Over-the-wire (loopback TCP, pipeline "
                  << net_pipeline << ", batch " << net_batch
                  << ", " << net_requests << " requests):\n";
        net_table.print(std::cout);
        std::cout << "All wire runs clean (every request answered, "
                     "no protocol errors): "
                  << (net_clean ? "yes" : "NO - BUG") << "\n";
    }

    // ---- JSON ----
    std::ofstream json("BENCH_serve.json");
    json << "{\n"
         << "  \"bench\": \"serve\",\n"
         << "  \"hardware_concurrency\": " << hw << ",\n"
         << "  \"sweep_skipped_single_core\": "
         << (sweep_skipped ? "true" : "false") << ",\n"
         << "  \"quick_mode\": "
         << (bench::quickMode() ? "true" : "false") << ",\n"
         << "  \"profiles\": " << num_profiles << ",\n"
         << "  \"cells_per_profile\": " << cells_per_profile << ",\n"
         << "  \"lookup\": {\"naive_qps\": " << naive_qps
         << ", \"cached_qps\": " << cached_qps
         << ", \"speedup\": " << speedup << ", \"answers_match\": "
         << (answers_match ? "true" : "false") << "},\n"
         << "  \"engine\": {\"producers\": " << producers
         << ", \"requests\": " << engine_requests << ", \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        const EngineRun &r = runs[i];
        json << "    {\"workers\": " << r.workers
             << ", \"qps\": " << r.qps
             << ", \"hit_rate\": " << r.hitRate
             << ", \"p50_us\": " << r.metrics.p50Us
             << ", \"p95_us\": " << r.metrics.p95Us
             << ", \"p99_us\": " << r.metrics.p99Us
             << ", \"rejected\": " << r.metrics.rejected
             << ", \"speedup_vs_1\": " << r.qps / runs.front().qps
             << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    json << "  ]},\n"
         << "  \"net\": {\"pipeline\": " << net_pipeline
         << ", \"batch\": " << net_batch
         << ", \"requests_per_run\": " << net_requests
         << ", \"clean\": " << (net_clean ? "true" : "false")
         << ", \"runs\": [\n";
    for (size_t i = 0; i < net_runs.size(); ++i) {
        const net::LoadgenResult &r = net_runs[i];
        json << "    {\"connections\": " << net_conns_run[i]
             << ", \"qps\": " << r.qps
             << ", \"p50_us\": " << r.p50Us
             << ", \"p95_us\": " << r.p95Us
             << ", \"p99_us\": " << r.p99Us
             << ", \"ok\": " << r.ok
             << ", \"not_found\": " << r.notFound
             << ", \"rejected\": " << r.rejected
             << ", \"protocol_errors\": " << r.protocolErrors << "}"
             << (i + 1 < net_runs.size() ? "," : "") << "\n";
    }
    json << "  ]},\n"
         << "  \"cache_sweep\": [\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
        const SweepPoint &pt = sweep[i];
        json << "    {\"capacity_fraction\": " << pt.fraction
             << ", \"capacity_bytes\": " << pt.capacityBytes
             << ", \"hit_rate\": " << pt.hitRate
             << ", \"qps\": " << pt.qps
             << ", \"evictions\": " << pt.evictions << "}"
             << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "\nWrote BENCH_serve.json\n";
    obs::dumpIfRequested();
    return answers_match && net_clean && speedup >= 10.0 ? 0 : 1;
}
