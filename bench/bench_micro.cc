/**
 * @file
 * Microbenchmarks (google-benchmark) of the library's hot paths: the
 * sparse-device read path, profiler iterations, the SECDED codec, the
 * memory-controller tick loop, cache accesses, trace generation, the
 * RNG/statistics primitives that everything sits on, the serve
 * hot paths (directory point lookup, cache hit, cache miss+compile,
 * cold view lookups over a store four times the cache at 1, 2 and 4
 * threads),
 * and the src/simd/ micro-kernels (CRC32C, bulk varint decode, word
 * fill/compare/scan) with their scalar twins side by side so the
 * dispatch win is visible per kernel.
 */

#include <benchmark/benchmark.h>

#include <filesystem>

#include "reaper/reaper.h"
#include "simd/crc32c.h"
#include "simd/dispatch.h"
#include "simd/varint.h"
#include "simd/words.h"

using namespace reaper;

namespace {

dram::DeviceConfig
deviceConfig(uint64_t capacity_bits)
{
    dram::DeviceConfig cfg;
    cfg.capacityBits = capacity_bits;
    cfg.seed = 1;
    cfg.envelope = {2.3, 50.0};
    return cfg;
}

void
BM_RngUniform(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

void
BM_RngNormal(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.normal());
}
BENCHMARK(BM_RngNormal);

void
BM_NormalQuantile(benchmark::State &state)
{
    double p = 0.0001;
    for (auto _ : state) {
        benchmark::DoNotOptimize(normalQuantile(p));
        p += 1e-7;
        if (p >= 1.0)
            p = 0.0001;
    }
}
BENCHMARK(BM_NormalQuantile);

void
BM_DevicePopulationSampling(benchmark::State &state)
{
    uint64_t capacity = 512ull * 1024 * 1024
                        << static_cast<int>(state.range(0));
    for (auto _ : state) {
        dram::DramDevice device(deviceConfig(capacity));
        benchmark::DoNotOptimize(device.weakCellCount());
    }
    state.SetLabel(std::to_string(capacity / (8 * 1024 * 1024)) + "MB");
}
// 64 MB .. 512 MB, and the paper's 2 GB chip.
BENCHMARK(BM_DevicePopulationSampling)->DenseRange(0, 3)->Arg(5);

void
BM_DeviceReadAndCompare(benchmark::State &state)
{
    // Arg 0 writes random data (the pattern draws a DPD factor per cell
    // and write), arg 1 a static checkerboard.
    const dram::DataPattern pattern = state.range(0) == 0
                                          ? dram::DataPattern::Random
                                          : dram::DataPattern::Checkerboard;
    dram::DramDevice device(deviceConfig(4ull * 1024 * 1024 * 1024));
    for (auto _ : state) {
        device.writePattern(pattern);
        device.disableRefresh();
        device.wait(1.024);
        device.enableRefresh();
        benchmark::DoNotOptimize(device.readAndCompare());
    }
    state.SetLabel(dram::toString(pattern));
    state.counters["weak_cells"] =
        static_cast<double>(device.weakCellCount());
}
BENCHMARK(BM_DeviceReadAndCompare)->Arg(0)->Arg(1);

void
BM_ProfilerIteration(benchmark::State &state)
{
    dram::ModuleConfig mc;
    mc.numChips = 1;
    mc.chipCapacityBits = 4ull * 1024 * 1024 * 1024;
    mc.seed = 2;
    mc.envelope = {2.3, 50.0};
    dram::DramModule module(mc);
    testbed::HostConfig hc;
    hc.useChamber = false;
    testbed::SoftMcHost host(module, hc);
    profiling::BruteForceProfiler profiler;
    for (auto _ : state) {
        profiling::BruteForceConfig cfg;
        cfg.test = {1.024, 45.0};
        cfg.iterations = 1;
        cfg.setTemperature = false;
        benchmark::DoNotOptimize(profiler.run(host, cfg));
    }
}
BENCHMARK(BM_ProfilerIteration);

void
BM_SecdedEncode(benchmark::State &state)
{
    ecc::Secded72 codec;
    uint64_t word = 0x0123456789ABCDEFull;
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec.encode(word));
        word = word * 6364136223846793005ull + 1;
    }
}
BENCHMARK(BM_SecdedEncode);

void
BM_SecdedDecodeWithError(benchmark::State &state)
{
    ecc::Secded72 codec;
    uint64_t word = 0xA5A5A5A5DEADBEEFull;
    uint8_t check = codec.encode(word);
    int bit = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            codec.decode(word ^ (1ull << bit), check));
        bit = (bit + 1) & 63;
    }
}
BENCHMARK(BM_SecdedDecodeWithError);

void
BM_MemCtrlTickStreaming(benchmark::State &state)
{
    sim::MemCtrlConfig cfg;
    cfg.timing = sim::lpddr4_3200(16);
    cfg.rowsPerBank = 32768;
    sim::MemoryController mc(cfg);
    uint64_t addr = 0;
    for (auto _ : state) {
        if (mc.readQueueSize() < 32) {
            sim::MemRequest req;
            req.addr = addr;
            sim::DramAddr d{0, static_cast<uint32_t>(addr / 2048 % 8),
                            addr / 16384 % 32768,
                            static_cast<uint32_t>(addr % 2048 / 64)};
            mc.enqueue(req, d);
            addr += 64;
        }
        mc.tick();
    }
    state.counters["reads"] =
        static_cast<double>(mc.stats().readsServed);
}
BENCHMARK(BM_MemCtrlTickStreaming);

void
BM_CacheAccess(benchmark::State &state)
{
    sim::Cache cache(sim::CacheConfig{});
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.uniformInt(1ull << 28) * 64, false));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_TraceGeneration(benchmark::State &state)
{
    const workload::BenchmarkSpec &spec =
        workload::benchmarkByName("mcf");
    uint64_t seed = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            workload::generateTrace(spec, 10000, ++seed));
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_TraceGeneration);

void
BM_SystemTick(benchmark::State &state)
{
    auto mixes = workload::makeMixes(1, 7);
    auto traces = workload::tracesForMix(mixes[0], 20000, 1);
    sim::SystemConfig cfg;
    cfg.channels = 4;
    cfg.setDram(16, 0.064);
    sim::System system(cfg, traces);
    for (auto _ : state)
        system.tick();
}
BENCHMARK(BM_SystemTick);

// ---- serve hot paths ----

constexpr uint64_t kServeRowBits = 2048 * 8;
constexpr uint64_t kServeRows = 1ull << 16;

profiling::RetentionProfile
serveProfile(uint64_t seed, size_t cells)
{
    Rng rng(seed);
    std::vector<dram::ChipFailure> v;
    v.reserve(cells);
    for (size_t i = 0; i < cells; ++i)
        v.push_back({0, rng.uniformInt(kServeRows * kServeRowBits)});
    profiling::RetentionProfile p({1.024, 45.0});
    p.add(v);
    return p;
}

void
BM_ServeDirectoryPointLookup(benchmark::State &state)
{
    serve::DirectoryConfig cfg;
    cfg.rowBits = kServeRowBits;
    cfg.useBloomFilters = state.range(0) != 0;
    serve::RefreshDirectory dir =
        serve::RefreshDirectory::compile(serveProfile(11, 50000), cfg);
    Rng rng(12);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dir.refreshBinFor(0, rng.uniformInt(kServeRows)));
    }
    state.SetLabel(cfg.useBloomFilters ? "bloom" : "exact");
}
BENCHMARK(BM_ServeDirectoryPointLookup)->Arg(0)->Arg(1);

void
BM_ServeCacheHit(benchmark::State &state)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "reaper_micro_serve_hit";
    fs::remove_all(dir);
    campaign::ProfileStore store(dir.string());
    std::string key =
        campaign::ProfileStore::profileKey("micro-hit", {1.024, 45.0});
    store.commit(key, serveProfile(21, 20000));
    serve::ProfileCache cache(store, serve::CacheConfig{});
    cache.get(key); // warm
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.get(key).dir.get());
    fs::remove_all(dir);
}
BENCHMARK(BM_ServeCacheHit);

void
BM_ServeCacheMissCompile(benchmark::State &state)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "reaper_micro_serve_miss";
    fs::remove_all(dir);
    campaign::ProfileStore store(dir.string());
    std::vector<std::string> keys;
    for (int i = 0; i < 2; ++i) {
        std::string key = campaign::ProfileStore::profileKey(
            "micro-miss-" + std::to_string(i), {1.024, 45.0});
        store.commit(key, serveProfile(30 + i, 20000));
        keys.push_back(key);
    }
    serve::CacheConfig cc;
    cc.shards = 1;
    cc.capacityBytes = 1; // hold one directory: alternation always misses
    serve::ProfileCache cache(store, cc);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.get(keys[i & 1]).dir.get());
        ++i;
    }
    state.SetLabel("20k cells: load + parse + compile");
    fs::remove_all(dir);
}
BENCHMARK(BM_ServeCacheMissCompile);

/** 256 keys × 20K cells, built once and shared by every thread count
 *  of BM_ServeCacheColdViewMiss; removed at exit. */
struct ColdViewStore
{
    std::filesystem::path dir;
    std::unique_ptr<campaign::ProfileStore> store;
    std::vector<std::string> keys;

    ColdViewStore()
        : dir(std::filesystem::temp_directory_path() /
              "reaper_micro_serve_cold")
    {
        std::filesystem::remove_all(dir);
        store = std::make_unique<campaign::ProfileStore>(dir.string());
        for (int i = 0; i < 256; ++i) {
            keys.push_back(campaign::ProfileStore::profileKey(
                "micro-cold-" + std::to_string(i), {1.024, 45.0}));
            store->commit(keys.back(), serveProfile(500 + i, 20000));
        }
    }
    ~ColdViewStore()
    {
        store.reset();
        std::filesystem::remove_all(dir);
    }
};

serve::CacheConfig
coldViewConfig(size_t capacityBytes)
{
    serve::CacheConfig cc;
    cc.capacityBytes = capacityBytes;
    cc.directory.rowBits = kServeRowBits;
    cc.serveFromViews = true;
    return cc;
}

// The cold-miss layer of serve_churn: uniform point lookups through
// ProfileCache::isRowWeakView with the cache at a quarter of the
// working set, so about three lookups in four open a view and evict
// one. items/s is the lookup rate summed over the threads.
void
BM_ServeCacheColdViewMiss(benchmark::State &state)
{
    static ColdViewStore cold;
    static std::unique_ptr<serve::ProfileCache> cache;
    if (state.thread_index() == 0) {
        // The working set as a cache big enough for every key holds
        // it; the benchmarked cache gets a quarter of that.
        serve::ProfileCache probe(*cold.store,
                                  coldViewConfig(64ull << 20));
        for (const std::string &key : cold.keys)
            probe.isRowWeakView(key, 0, 0);
        cache = std::make_unique<serve::ProfileCache>(
            *cold.store, coldViewConfig(probe.counters().bytes / 4));
    }
    Rng rng(41 + static_cast<uint64_t>(state.thread_index()));
    for (auto _ : state) {
        const std::string &key =
            cold.keys[rng.uniformInt(cold.keys.size())];
        benchmark::DoNotOptimize(
            cache->isRowWeakView(key, 0, rng.uniformInt(kServeRows)));
    }
    state.SetItemsProcessed(state.iterations());
    if (state.thread_index() == 0) {
        serve::CacheCounters c = cache->counters();
        state.counters["view_open_share"] =
            static_cast<double>(c.viewLoads) /
            static_cast<double>(c.viewLoads + c.viewHits);
        cache.reset();
    }
}
BENCHMARK(BM_ServeCacheColdViewMiss)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

// ---- simd micro-kernels (scalar twin vs dispatched) ----

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> buf(n);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.uniformInt(256));
    return buf;
}

void
BM_Crc32c(benchmark::State &state)
{
    bool dispatched = state.range(0) != 0;
    std::vector<uint8_t> buf = randomBytes(64 * 1024, 41);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dispatched ? simd::crc32c(0, buf.data(), buf.size())
                       : simd::crc32cSoftware(0, buf.data(),
                                              buf.size()));
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * buf.size()));
    state.SetLabel(dispatched
                       ? std::string("dispatched:") +
                             simd::toString(simd::activeLevel())
                       : "software");
}
BENCHMARK(BM_Crc32c)->Arg(0)->Arg(1);

void
BM_VarintDecode(benchmark::State &state)
{
    // A profile-shaped stream: (dchip, delta-addr) pairs where dchip
    // is almost always the 1-byte 0 and the address delta is a 2-4
    // byte varint — the distribution readBlock bulk-decodes.
    bool swar = state.range(0) != 0;
    constexpr size_t kCount = 16 * 1024;
    Rng rng(42);
    std::vector<uint8_t> buf;
    buf.reserve(kCount * 3);
    uint8_t tmp[simd::kMaxVarintBytes];
    for (size_t i = 0; i < kCount; i += 2) {
        size_t n = simd::encodeVarint(tmp, rng.uniformInt(4) == 0 ? 1 : 0);
        buf.insert(buf.end(), tmp, tmp + n);
        n = simd::encodeVarint(tmp, rng.uniformInt(1ull << 22));
        buf.insert(buf.end(), tmp, tmp + n);
    }
    std::vector<uint64_t> out(kCount);
    const uint8_t *end = buf.data() + buf.size();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            swar ? simd::decodeVarintsSwar(buf.data(), end, out.data(),
                                           kCount)
                 : simd::decodeVarintsScalar(buf.data(), end,
                                             out.data(), kCount));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * kCount));
    state.SetLabel(swar ? "swar" : "scalar");
}
BENCHMARK(BM_VarintDecode)->Arg(0)->Arg(1);

void
BM_FillWords(benchmark::State &state)
{
    bool dispatched = state.range(0) != 0;
    std::vector<uint64_t> buf(64 * 1024);
    for (auto _ : state) {
        if (dispatched)
            simd::fillWords(buf.data(), buf.size(), 0x5555555555555555ull);
        else
            simd::fillWordsScalar(buf.data(), buf.size(),
                                  0x5555555555555555ull);
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetBytesProcessed(static_cast<int64_t>(
        state.iterations() * buf.size() * sizeof(uint64_t)));
    state.SetLabel(dispatched ? "dispatched" : "scalar");
}
BENCHMARK(BM_FillWords)->Arg(0)->Arg(1);

void
BM_CompareWords(benchmark::State &state)
{
    bool dispatched = state.range(0) != 0;
    constexpr size_t kWords = 64 * 1024;
    Rng rng(43);
    std::vector<uint64_t> got(kWords, 0), expect(kWords, 0);
    // Sparse mismatches (~1 in 4096 words), the read-compare regime.
    for (size_t i = 0; i < kWords / 4096; ++i)
        got[rng.uniformInt(kWords)] ^= 1;
    std::vector<uint64_t> out;
    for (auto _ : state) {
        out.clear();
        benchmark::DoNotOptimize(
            dispatched
                ? simd::compareWords(got.data(), expect.data(), kWords,
                                     out)
                : simd::compareWordsScalar(got.data(), expect.data(),
                                           kWords, out));
    }
    state.SetBytesProcessed(static_cast<int64_t>(
        state.iterations() * kWords * sizeof(uint64_t)));
    state.SetLabel(dispatched ? "dispatched" : "scalar");
}
BENCHMARK(BM_CompareWords)->Arg(0)->Arg(1);

void
BM_ScanNotGreater(benchmark::State &state)
{
    bool dispatched = state.range(0) != 0;
    constexpr size_t kVals = 64 * 1024;
    Rng rng(44);
    std::vector<double> vals(kVals);
    for (double &v : vals)
        v = rng.uniform() * 10.0;
    double threshold = 0.01; // sparse survivors, like the 5-sigma scan
    std::vector<uint32_t> out;
    for (auto _ : state) {
        out.clear();
        if (dispatched)
            simd::scanNotGreater(vals.data(), kVals, threshold, out);
        else
            simd::scanNotGreaterScalar(vals.data(), kVals, threshold,
                                       out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<int64_t>(
        state.iterations() * kVals * sizeof(double)));
    state.SetLabel(dispatched ? "dispatched" : "scalar");
}
BENCHMARK(BM_ScanNotGreater)->Arg(0)->Arg(1);

void
BM_UberSolve(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ecc::tolerableRber(1e-15, ecc::EccConfig::secded()));
    }
}
BENCHMARK(BM_UberSolve);

} // namespace

// Expanded BENCHMARK_MAIN() so REAPER_OBS_DUMP runs can export the
// global registry before exit.
int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    obs::dumpIfRequested();
    return 0;
}
