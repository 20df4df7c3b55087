/**
 * @file
 * Profile-format I/O benchmark: REAPER-PROFILE v1 text vs. v2 binary.
 *
 * The profile file is the unit of persistence for every campaign
 * commit, store recovery, and serve-daemon cold start, so this bench
 * measures the two costs that dominate those paths:
 *
 *  1. serialize/deserialize throughput (cells/s and MB/s) plus
 *     on-disk size for one large (default 1M-cell) profile, and
 *  2. cold ProfileCache fill latency over a multi-chip store written
 *     in each format — the serve path's miss cost,
 *
 *  3. cold point lookups through a block-indexed ProfileView (open +
 *     one contains()), the path that keeps serve-side miss latency
 *     from scaling with profile size, and
 *
 *  4. delta-chain compaction throughput, with the compacted base
 *     checked byte-identical to a direct full commit.
 *
 * Emits BENCH_io.json. Exits nonzero when either format fails to
 * round-trip bit-exactly or compaction is not byte-identical. Performance regressions are NOT gated here:
 * scripts/check_bench.py diffs the emitted JSON against the committed
 * bench/baselines/ and owns the pass/fail decision, so a slow run
 * fails CI with a readable per-metric report instead of a bare exit
 * code.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "campaign/profile_store.h"
#include "common/expected.h"
#include "common/rng.h"
#include "common/table.h"
#include "dram/module.h"
#include "profiling/profile.h"
#include "profiling/profile_binary.h"
#include "profiling/profile_io.h"
#include "profiling/profile_view.h"
#include "serve/profile_cache.h"
#include "simd/dispatch.h"

namespace fs = std::filesystem;

using namespace reaper;

namespace {

// Serve-daemon chip geometry: 2^16 rows of 2 KiB -> 2^30 bit addresses.
constexpr uint64_t kRowBits = 2048 * 8;
constexpr uint64_t kRowsPerChip = 1ull << 16;

/** A weak-cell profile at realistic density over the chip's address
 *  space (cells land ~1 Kb apart, as in a retention-failure map). */
profiling::RetentionProfile
syntheticProfile(uint64_t seed, size_t cells, uint32_t chips)
{
    Rng rng(seed);
    std::vector<dram::ChipFailure> fails;
    fails.reserve(cells);
    for (size_t i = 0; i < cells; ++i)
        fails.push_back({static_cast<uint32_t>(rng.uniformInt(chips)),
                         rng.uniformInt(kRowsPerChip * kRowBits)});
    profiling::RetentionProfile p({1.024, 45.0});
    p.add(fails);
    return p;
}

struct IoTiming
{
    double writeSeconds = 0.0;
    double readSeconds = 0.0;
    uint64_t fileBytes = 0;
    bool roundTrip = false;
};

double
now(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Best-of-N timed write + read of one profile in one format. */
IoTiming
timeFormat(const profiling::RetentionProfile &profile,
           const std::string &path, profiling::ProfileFormat format,
           int reps)
{
    IoTiming t;
    t.writeSeconds = 1e30;
    t.readSeconds = 1e30;
    t.roundTrip = true;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        common::Status written =
            profiling::writeProfileFile(profile, path, format);
        if (!written)
            fatal("bench_io: %s", written.error().describe().c_str());
        t.writeSeconds = std::min(t.writeSeconds, now(t0));

        t0 = std::chrono::steady_clock::now();
        common::Expected<profiling::RetentionProfile> loaded =
            profiling::readProfileFile(path);
        if (!loaded)
            fatal("bench_io: %s", loaded.error().describe().c_str());
        t.readSeconds = std::min(t.readSeconds, now(t0));

        t.roundTrip = t.roundTrip &&
                      loaded.value().cells() == profile.cells();
    }
    t.fileBytes = static_cast<uint64_t>(fs::file_size(path));
    return t;
}

/** Cold-cache fill: every key missed once, timing the full store-load
 *  + directory-compile path. */
double
coldFillSeconds(const campaign::ProfileStore &store)
{
    serve::CacheConfig cfg;
    cfg.directory.rowBits = kRowBits;
    serve::ProfileCache cache(store, cfg);
    auto t0 = std::chrono::steady_clock::now();
    for (const campaign::StoreEntry &e : store.entries()) {
        serve::CacheResult r = cache.get(e.key);
        if (r.outcome != serve::CacheOutcome::Miss || !r.dir)
            fatal("bench_io: cold get('%s') did not miss-load",
                  e.key.c_str());
    }
    return now(t0);
}

} // namespace

int
main()
{
    bench::benchHeader("Profile format I/O (v1 text vs v2 binary)",
                       "perf harness (BENCH_io.json)");

    const size_t cells =
        static_cast<size_t>(bench::scaled(1'000'000, 50'000));
    const uint32_t chips = 4;
    const int reps = bench::scaled(3, 2);

    fs::path dir = fs::temp_directory_path() / "reaper_bench_io";
    fs::remove_all(dir);
    fs::create_directories(dir);

    std::cout << "Part 1: one " << cells << "-cell profile, best of "
              << reps << " runs\n\n";
    profiling::RetentionProfile profile =
        syntheticProfile(7, cells, chips);

    IoTiming v1 = timeFormat(profile, (dir / "profile.v1").string(),
                             profiling::ProfileFormat::TextV1, reps);
    IoTiming v2 = timeFormat(profile, (dir / "profile.v2").string(),
                             profiling::ProfileFormat::BinaryV2, reps);

    auto cellsPerSec = [&](double s) {
        return static_cast<double>(profile.size()) / s;
    };
    auto mbPerSec = [](uint64_t bytes, double s) {
        return static_cast<double>(bytes) / s / 1e6;
    };

    TablePrinter table({"format", "file size", "write cells/s",
                        "read cells/s", "read MB/s", "round trip"});
    table.addRow({"v1 text",
                  fmtF(static_cast<double>(v1.fileBytes) / 1e6, 2) +
                      " MB",
                  fmtF(cellsPerSec(v1.writeSeconds) / 1e6, 2) + "M",
                  fmtF(cellsPerSec(v1.readSeconds) / 1e6, 2) + "M",
                  fmtF(mbPerSec(v1.fileBytes, v1.readSeconds), 1),
                  v1.roundTrip ? "yes" : "NO"});
    table.addRow({"v2 binary",
                  fmtF(static_cast<double>(v2.fileBytes) / 1e6, 2) +
                      " MB",
                  fmtF(cellsPerSec(v2.writeSeconds) / 1e6, 2) + "M",
                  fmtF(cellsPerSec(v2.readSeconds) / 1e6, 2) + "M",
                  fmtF(mbPerSec(v2.fileBytes, v2.readSeconds), 1),
                  v2.roundTrip ? "yes" : "NO"});
    table.print(std::cout);

    // Speedups are derived from the same cells/s figures emitted in
    // the per-format JSON rows, so the summary fields can always be
    // re-derived from the rows they summarize.
    double sizeRatio = static_cast<double>(v1.fileBytes) /
                       static_cast<double>(v2.fileBytes);
    double readSpeedup =
        cellsPerSec(v2.readSeconds) / cellsPerSec(v1.readSeconds);
    double writeSpeedup =
        cellsPerSec(v2.writeSeconds) / cellsPerSec(v1.writeSeconds);
    std::cout << "\nv2 vs v1: " << fmtF(sizeRatio, 2)
              << "x smaller on disk, " << fmtF(readSpeedup, 2)
              << "x faster read, " << fmtF(writeSpeedup, 2)
              << "x faster write\n";

    std::cout << "\nPart 2: cold ProfileCache fill (store load + "
                 "directory compile)\n\n";
    const size_t storeChips =
        static_cast<size_t>(bench::scaled(12, 4));
    const size_t storeCells =
        static_cast<size_t>(bench::scaled(100'000, 20'000));

    double fill[2] = {0.0, 0.0};
    const profiling::ProfileFormat formats[2] = {
        profiling::ProfileFormat::TextV1,
        profiling::ProfileFormat::BinaryV2};
    for (int f = 0; f < 2; ++f) {
        fs::path storeDir =
            dir / (std::string("store_") +
                   profiling::toString(formats[f]));
        campaign::ProfileStore store(storeDir.string(), formats[f]);
        for (size_t c = 0; c < storeChips; ++c) {
            profiling::RetentionProfile p =
                syntheticProfile(100 + c, storeCells, 1);
            store.commit(campaign::ProfileStore::profileKey(
                             "bench-chip-" + std::to_string(c),
                             p.conditions()),
                         p);
        }
        fill[f] = coldFillSeconds(store);
    }

    TablePrinter fillTable(
        {"store format", "profiles", "cold fill", "ms/profile"});
    for (int f = 0; f < 2; ++f)
        fillTable.addRow(
            {profiling::toString(formats[f]),
             std::to_string(storeChips), fmtF(fill[f], 3) + "s",
             fmtF(fill[f] * 1e3 / static_cast<double>(storeChips),
                  2)});
    fillTable.print(std::cout);

    std::cout << "\nPart 3: cold point lookups from a block-indexed "
                 "view\n\n";
    struct LookupStats
    {
        size_t cells;
        double coldSeconds;
        double lookupsPerSec;
        double blocksPerLookup;
    };
    std::vector<LookupStats> lookupStats;
    const size_t lookupSizes[2] = {10'000, cells};
    for (size_t n : lookupSizes) {
        profiling::RetentionProfile p = syntheticProfile(21, n, chips);
        std::string path =
            (dir / ("lookup_" + std::to_string(n) + ".v2")).string();
        common::Status written = profiling::writeProfileFile(
            p, path, profiling::ProfileFormat::BinaryV2);
        if (!written)
            fatal("bench_io: %s", written.error().describe().c_str());

        // Cold: a fresh open (header, footer and index preads) plus
        // ONE point lookup, which preads one block — the serve path's
        // first query against an unseen profile.
        const int samples = bench::scaled(64, 16);
        double cold = 1e30;
        double blocksDecoded = 0.0;
        for (int s = 0; s < samples; ++s) {
            const dram::ChipFailure &probe =
                p.cells()[(static_cast<size_t>(s) * 2654435761u) %
                          p.size()];
            auto t0 = std::chrono::steady_clock::now();
            common::Expected<profiling::ProfileView> view =
                profiling::ProfileView::open(path);
            if (!view)
                fatal("bench_io: %s",
                      view.error().describe().c_str());
            common::Expected<bool> hit = view.value().contains(probe);
            cold = std::min(cold, now(t0));
            if (!hit || !hit.value())
                fatal("bench_io: view lost a committed cell");
            blocksDecoded +=
                static_cast<double>(view.value().blocksDecoded());
        }

        // Warm: sustained random point lookups against one view.
        common::Expected<profiling::ProfileView> view =
            profiling::ProfileView::open(path);
        if (!view)
            fatal("bench_io: %s", view.error().describe().c_str());
        const size_t nLookups =
            static_cast<size_t>(bench::scaled(50'000, 10'000));
        Rng rng(5);
        size_t hits = 0;
        auto t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < nLookups; ++i) {
            const dram::ChipFailure &probe =
                p.cells()[rng.uniformInt(p.size())];
            common::Expected<bool> hit = view.value().contains(probe);
            hits += hit.hasValue() && hit.value();
        }
        double warmSeconds = now(t0);
        if (hits != nLookups)
            fatal("bench_io: %zu of %zu warm lookups missed",
                  nLookups - hits, nLookups);
        lookupStats.push_back(
            {n, cold, static_cast<double>(nLookups) / warmSeconds,
             blocksDecoded / samples});
    }

    TablePrinter lookupTable({"cells", "cold open+lookup",
                              "warm lookups/s", "blocks/lookup"});
    for (const LookupStats &s : lookupStats)
        lookupTable.addRow(
            {std::to_string(s.cells),
             fmtF(s.coldSeconds * 1e6, 1) + "us",
             fmtF(s.lookupsPerSec / 1e6, 2) + "M",
             fmtF(s.blocksPerLookup, 2)});
    lookupTable.print(std::cout);
    double coldRatio =
        lookupStats[1].coldSeconds / lookupStats[0].coldSeconds;
    std::cout << "\ncold lookup on " << lookupStats[1].cells
              << " cells is " << fmtF(coldRatio, 2) << "x the "
              << lookupStats[0].cells << "-cell cost\n";

    std::cout << "\nPart 4: delta-chain compaction (8 links, "
                 "byte-identical gate)\n\n";
    const size_t deltaBaseCells =
        static_cast<size_t>(bench::scaled(100'000, 20'000));
    const int chainLen = 8;
    fs::path chainDir = dir / "store_chain";
    fs::path directDir = dir / "store_direct";
    double compactSeconds = 0.0;
    bool byteIdentical = false;
    {
        campaign::ProfileStore chainStore(chainDir.string());
        profiling::RetentionProfile p =
            syntheticProfile(31, deltaBaseCells, 1);
        std::string key = campaign::ProfileStore::profileKey(
            "bench-delta", p.conditions());
        chainStore.commit(key, p);
        Rng rng(9);
        for (int k = 0; k < chainLen; ++k) {
            // ~1% churn per round, the VRT reprofiling shape.
            std::vector<dram::ChipFailure> next;
            next.reserve(p.size());
            for (const dram::ChipFailure &f : p.cells())
                if (rng.uniform() >= 0.01)
                    next.push_back(f);
            for (size_t a = 0; a < deltaBaseCells / 100; ++a)
                next.push_back(
                    {0, rng.uniformInt(kRowsPerChip * kRowBits)});
            profiling::RetentionProfile drifted(p.conditions());
            drifted.add(next);
            p = drifted;
            chainStore.commitDelta(key, p);
        }

        auto t0 = std::chrono::steady_clock::now();
        common::Expected<profiling::ProfileView> view =
            chainStore.openView(key); // compacts the chain
        compactSeconds = now(t0);
        if (!view)
            fatal("bench_io: %s", view.error().describe().c_str());

        campaign::ProfileStore directStore(directDir.string());
        directStore.commit(key, p);
        std::string file = chainStore.entries()[0].file;
        std::ifstream a(chainDir / file, std::ios::binary);
        std::ifstream b(directDir / file, std::ios::binary);
        std::ostringstream sa, sb;
        sa << a.rdbuf();
        sb << b.rdbuf();
        byteIdentical =
            !sa.str().empty() && sa.str() == sb.str();
    }
    double compactCellsPerSec =
        static_cast<double>(deltaBaseCells) / compactSeconds;
    std::cout << "compacted " << deltaBaseCells << "-cell base + "
              << chainLen << " deltas in "
              << fmtF(compactSeconds * 1e3, 1) << "ms ("
              << fmtF(compactCellsPerSec / 1e6, 2)
              << "M cells/s), byte-identical: "
              << (byteIdentical ? "yes" : "NO") << "\n";

    bool roundTrips = v1.roundTrip && v2.roundTrip;

    std::ofstream json("BENCH_io.json");
    json << "{\n"
         << "  \"bench\": \"io\",\n"
         << "  \"quick_mode\": "
         << (bench::quickMode() ? "true" : "false") << ",\n"
         << "  \"simd\": \""
         << simd::toString(simd::activeLevel()) << "\",\n"
         << "  \"cells\": " << profile.size() << ",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"formats\": [\n";
    const IoTiming *timings[2] = {&v1, &v2};
    for (int f = 0; f < 2; ++f) {
        const IoTiming &t = *timings[f];
        json << "    {\"format\": \""
             << profiling::toString(formats[f])
             << "\", \"file_bytes\": " << t.fileBytes
             << ", \"write_seconds\": " << t.writeSeconds
             << ", \"read_seconds\": " << t.readSeconds
             << ", \"write_cells_per_sec\": "
             << cellsPerSec(t.writeSeconds)
             << ", \"read_cells_per_sec\": "
             << cellsPerSec(t.readSeconds)
             << ", \"read_mb_per_sec\": "
             << mbPerSec(t.fileBytes, t.readSeconds)
             << ", \"round_trip\": "
             << (t.roundTrip ? "true" : "false") << "}"
             << (f == 0 ? "," : "") << "\n";
    }
    json << "  ],\n"
         << "  \"v2_size_ratio\": " << sizeRatio << ",\n"
         << "  \"v2_read_speedup\": " << readSpeedup << ",\n"
         << "  \"v2_write_speedup\": " << writeSpeedup << ",\n"
         << "  \"cold_fill\": [\n"
         << "    {\"format\": \"v1\", \"profiles\": " << storeChips
         << ", \"cells_each\": " << storeCells
         << ", \"seconds\": " << fill[0] << "},\n"
         << "    {\"format\": \"v2\", \"profiles\": " << storeChips
         << ", \"cells_each\": " << storeCells
         << ", \"seconds\": " << fill[1] << "}\n"
         << "  ],\n"
         << "  \"point_lookup\": [\n";
    for (size_t i = 0; i < lookupStats.size(); ++i) {
        const LookupStats &s = lookupStats[i];
        json << "    {\"cells\": " << s.cells
             << ", \"cold_open_lookup_seconds\": " << s.coldSeconds
             << ", \"lookups_per_sec\": " << s.lookupsPerSec
             << ", \"blocks_per_lookup\": " << s.blocksPerLookup
             << "}" << (i + 1 < lookupStats.size() ? "," : "")
             << "\n";
    }
    json << "  ],\n"
         << "  \"point_lookup_cold_ratio\": " << coldRatio << ",\n"
         << "  \"delta_compaction\": {\"base_cells\": "
         << deltaBaseCells << ", \"chain\": " << chainLen
         << ", \"seconds\": " << compactSeconds
         << ", \"cells_per_sec\": " << compactCellsPerSec
         << ", \"byte_identical\": "
         << (byteIdentical ? "true" : "false") << "},\n"
         << "  \"round_trip\": " << (roundTrips ? "true" : "false")
         << "\n}\n";
    std::cout << "\nWrote BENCH_io.json\n";

    fs::remove_all(dir);
    if (!roundTrips)
        std::cout << "FAIL: round trip mismatch\n";
    if (!byteIdentical)
        std::cout << "FAIL: compacted chain differs from direct "
                     "commit\n";
    return roundTrips && byteIdentical ? 0 : 1;
}
