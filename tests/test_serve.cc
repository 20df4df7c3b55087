/**
 * @file
 * Tests for the profile-serving subsystem: cache singleflight and
 * eviction, engine determinism across worker counts, bounded-queue
 * backpressure (reject, never deadlock), graceful drain, and the
 * metrics surface. Runs under `ctest -L sanitize` with
 * -DREAPER_SANITIZE=thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include "campaign/profile_store.h"
#include "common/rng.h"
#include "serve/metrics.h"
#include "serve/profile_cache.h"
#include "serve/query_engine.h"
#include "serve/workload.h"

namespace fs = std::filesystem;

namespace reaper {
namespace serve {
namespace {

constexpr uint64_t kRowBits = 512;
constexpr uint64_t kRows = 1024;

std::string
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("reaper_" + name);
    fs::remove_all(dir);
    return dir.string();
}

profiling::RetentionProfile
randomProfile(uint64_t seed, size_t cells)
{
    Rng rng(seed);
    std::vector<dram::ChipFailure> v;
    v.reserve(cells);
    for (size_t i = 0; i < cells; ++i)
        v.push_back({0, rng.uniformInt(kRows * kRowBits)});
    profiling::RetentionProfile p({1.024, 45.0});
    p.add(v);
    return p;
}

/** A store populated with `n` profiles; returns their keys. */
std::vector<std::string>
populateStore(campaign::ProfileStore &store, size_t n,
              size_t cells = 400)
{
    std::vector<std::string> keys;
    for (size_t i = 0; i < n; ++i) {
        std::string key = campaign::ProfileStore::profileKey(
            "chip-" + std::to_string(i), {1.024, 45.0});
        store.commit(key, randomProfile(1000 + i, cells));
        keys.push_back(key);
    }
    return keys;
}

CacheConfig
testCacheConfig()
{
    CacheConfig cfg;
    cfg.directory.rowBits = kRowBits;
    return cfg;
}

// ---------------- ProfileCache ----------------

TEST(ProfileCache, HitAfterMiss)
{
    campaign::ProfileStore store(scratchDir("cache_hit"));
    auto keys = populateStore(store, 2);
    ProfileCache cache(store, testCacheConfig());

    CacheResult first = cache.get(keys[0]);
    ASSERT_TRUE(first.dir);
    EXPECT_EQ(first.outcome, CacheOutcome::Miss);
    CacheResult second = cache.get(keys[0]);
    ASSERT_TRUE(second.dir);
    EXPECT_EQ(second.outcome, CacheOutcome::Hit);
    EXPECT_EQ(first.dir.get(), second.dir.get());

    CacheCounters c = cache.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.loads, 1u);
    EXPECT_EQ(c.entries, 1u);
    EXPECT_GT(c.bytes, 0u);
}

TEST(ProfileCache, NegativeCachingForUnknownKeys)
{
    campaign::ProfileStore store(scratchDir("cache_negative"));
    populateStore(store, 1);
    ProfileCache cache(store, testCacheConfig());

    CacheResult first = cache.get("no-such-chip@trefi64.000ms@45.00C");
    EXPECT_FALSE(first.dir);
    EXPECT_EQ(first.outcome, CacheOutcome::NotFound);
    CacheResult second = cache.get("no-such-chip@trefi64.000ms@45.00C");
    EXPECT_FALSE(second.dir);
    EXPECT_EQ(second.outcome, CacheOutcome::NegativeHit);
    // The store was consulted exactly once for the ghost key.
    EXPECT_EQ(cache.counters().loads, 1u);
    EXPECT_EQ(cache.counters().failedLoads, 1u);
}

TEST(ProfileCache, InvalidateDropsNegativeEntryAfterCommit)
{
    campaign::ProfileStore store(scratchDir("cache_invalidate"));
    ProfileCache cache(store, testCacheConfig());
    std::string key = campaign::ProfileStore::profileKey(
        "late-chip", {1.024, 45.0});

    EXPECT_EQ(cache.get(key).outcome, CacheOutcome::NotFound);
    store.commit(key, randomProfile(7, 100));
    // Still negatively cached...
    EXPECT_EQ(cache.get(key).outcome, CacheOutcome::NegativeHit);
    // ...until invalidated.
    cache.invalidate(key);
    CacheResult r = cache.get(key);
    EXPECT_EQ(r.outcome, CacheOutcome::Miss);
    ASSERT_TRUE(r.dir);
    EXPECT_GT(r.dir->weakCellCount(), 0u);
}

TEST(ProfileCache, ByteAccountedEviction)
{
    campaign::ProfileStore store(scratchDir("cache_evict"));
    auto keys = populateStore(store, 8, 2000);
    CacheConfig cfg = testCacheConfig();
    cfg.shards = 1; // single shard so capacity math is exact
    // Fit roughly two compiled directories.
    ProfileCache probe(store, cfg);
    size_t one = probe.get(keys[0]).dir->sizeBytes();
    cfg.capacityBytes = one * 2 + one / 2;
    ProfileCache cache(store, cfg);
    for (const auto &key : keys)
        ASSERT_TRUE(cache.get(key).dir);
    CacheCounters c = cache.counters();
    EXPECT_GT(c.evictions, 0u);
    EXPECT_LE(c.bytes, cfg.capacityBytes);
    EXPECT_LT(c.entries, keys.size());
    // Most recently used key is still hot.
    EXPECT_EQ(cache.get(keys.back()).outcome, CacheOutcome::Hit);
}

TEST(ProfileCache, SingleflightLoadsOnceUnderConcurrentMisses)
{
    campaign::ProfileStore store(scratchDir("cache_singleflight"));
    // A big profile so the load+compile window is wide.
    std::string key = campaign::ProfileStore::profileKey(
        "hot-chip", {1.024, 45.0});
    store.commit(key, randomProfile(99, 60000));
    ProfileCache cache(store, testCacheConfig());

    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::shared_ptr<const RefreshDirectory>> dirs(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (!go.load())
                std::this_thread::yield();
            dirs[t] = cache.get(key).dir;
        });
    }
    while (ready.load() < kThreads)
        std::this_thread::yield();
    go.store(true);
    for (auto &th : threads)
        th.join();

    // However the threads interleaved, the store was read exactly once
    // and everyone shares the same compiled directory.
    CacheCounters c = cache.counters();
    EXPECT_EQ(c.loads, 1u);
    EXPECT_EQ(c.hits + c.misses, static_cast<uint64_t>(kThreads));
    for (const auto &dir : dirs) {
        ASSERT_TRUE(dir);
        EXPECT_EQ(dir.get(), dirs[0].get());
    }
}

// ---------------- View serving ----------------

TEST(ProfileCache, ViewAnswersMatchCompiledDirectory)
{
    campaign::ProfileStore store(scratchDir("cache_view_agree"));
    auto keys = populateStore(store, 2, 600);
    CacheConfig cfg = testCacheConfig();
    cfg.serveFromViews = true;
    ProfileCache cache(store, cfg);

    // The exact compiled table is the reference answer.
    ProfileCache reference(store, testCacheConfig());
    const RefreshDirectory &dir = *reference.get(keys[0]).dir;

    for (uint64_t row = 0; row < kRows; ++row) {
        ViewAnswer a = cache.isRowWeakView(keys[0], 0, row);
        ASSERT_EQ(a.state, ViewState::Answered) << "row " << row;
        EXPECT_EQ(a.weak, dir.isRowWeak(0, row)) << "row " << row;
    }
    CacheCounters c = cache.counters();
    EXPECT_EQ(c.viewLoads, 1u);
    EXPECT_EQ(c.viewHits, kRows - 1);

    // Unknown keys are negatively cached on the view path too.
    EXPECT_EQ(cache.isRowWeakView("ghost@x", 0, 0).state,
              ViewState::Unknown);
    EXPECT_EQ(cache.isRowWeakView("ghost@x", 0, 0).source,
              CacheOutcome::NegativeHit);
}

TEST(ProfileCache, ViewServingDisabledOrBloomIsUnavailable)
{
    campaign::ProfileStore store(scratchDir("cache_view_gate"));
    auto keys = populateStore(store, 1);

    ProfileCache off(store, testCacheConfig());
    EXPECT_EQ(off.isRowWeakView(keys[0], 0, 0).state,
              ViewState::Unavailable);

    // Bloom-filtered directories give one-sided answers, so the view
    // path must decline rather than diverge from the compiled table.
    CacheConfig cfg = testCacheConfig();
    cfg.serveFromViews = true;
    cfg.directory.useBloomFilters = true;
    ProfileCache bloom(store, cfg);
    EXPECT_EQ(bloom.isRowWeakView(keys[0], 0, 0).state,
              ViewState::Unavailable);
}

// ---------------- QueryEngine ----------------

EngineConfig
engineConfig(unsigned workers, size_t capacity = 4096)
{
    EngineConfig cfg;
    cfg.workers = workers;
    cfg.queueCapacity = capacity;
    cfg.batchSize = 8;
    return cfg;
}

/** Fields of a response that must be worker-count invariant. */
struct Deterministic
{
    uint64_t id;
    ResponseStatus status;
    bool weak;
    uint32_t bin;

    bool
    operator==(const Deterministic &o) const
    {
        return id == o.id && status == o.status && weak == o.weak &&
               bin == o.bin;
    }
};

std::vector<Deterministic>
runStream(campaign::ProfileStore &store,
          const std::vector<std::string> &keys, unsigned workers,
          size_t requests, bool serveFromViews = false)
{
    CacheConfig cacheCfg = testCacheConfig();
    cacheCfg.serveFromViews = serveFromViews;
    ProfileCache cache(store, cacheCfg);
    QueryEngine engine(cache, engineConfig(workers));
    WorkloadConfig wc;
    wc.keys = keys;
    wc.unknownFraction = 0.1;
    wc.rowsPerChip = kRows;
    Workload workload(wc, /*seed=*/77);
    for (size_t i = 0; i < requests; ++i) {
        // Capacity is ample here; every request must be accepted.
        EXPECT_EQ(engine.trySubmit(workload.next()),
                  QueryEngine::Submit::Accepted)
            << "request " << i;
    }
    engine.drain();
    std::vector<Response> responses = engine.takeResponses();
    EXPECT_EQ(responses.size(), requests);
    std::vector<Deterministic> out;
    out.reserve(responses.size());
    for (const auto &r : responses)
        out.push_back({r.id, r.status, r.weak, r.bin});
    std::sort(out.begin(), out.end(),
              [](const Deterministic &a, const Deterministic &b) {
                  return a.id < b.id;
              });
    return out;
}

TEST(QueryEngine, IdenticalResponsesAtAnyWorkerCount)
{
    campaign::ProfileStore store(scratchDir("engine_determinism"));
    auto keys = populateStore(store, 6);
    auto one = runStream(store, keys, 1, 2000);
    auto two = runStream(store, keys, 2, 2000);
    auto eight = runStream(store, keys, 8, 2000);
    // Ids are dense and the answer sets identical.
    ASSERT_EQ(one.size(), 2000u);
    for (size_t i = 0; i < one.size(); ++i)
        ASSERT_EQ(one[i].id, i);
    EXPECT_TRUE(one == two);
    EXPECT_TRUE(one == eight);
}

// Serving from lazy views must be invisible in the answers: the same
// request stream yields bit-identical responses with views on or off,
// at any worker count.
TEST(QueryEngine, ViewServingMatchesCompiledPath)
{
    campaign::ProfileStore store(scratchDir("engine_views"));
    auto keys = populateStore(store, 6);
    auto compiled = runStream(store, keys, 2, 2000, false);
    auto viewsOne = runStream(store, keys, 1, 2000, true);
    auto viewsEight = runStream(store, keys, 8, 2000, true);
    EXPECT_TRUE(compiled == viewsOne);
    EXPECT_TRUE(compiled == viewsEight);
}

TEST(QueryEngine, AnswersMatchDirectoryPointLookups)
{
    campaign::ProfileStore store(scratchDir("engine_answers"));
    auto keys = populateStore(store, 2);
    ProfileCache cache(store, testCacheConfig());
    QueryEngine engine(cache, engineConfig(2));

    Request bin_req{1, QueryKind::RefreshBin, keys[0], 0, 17};
    Request weak_req{2, QueryKind::IsRowWeak, keys[1], 0, 23};
    Request ghost{3, QueryKind::RefreshBin, "ghost@x", 0, 1};
    ASSERT_EQ(engine.trySubmit(bin_req),
              QueryEngine::Submit::Accepted);
    ASSERT_EQ(engine.trySubmit(weak_req),
              QueryEngine::Submit::Accepted);
    ASSERT_EQ(engine.trySubmit(ghost), QueryEngine::Submit::Accepted);
    engine.drain();
    auto responses = engine.takeResponses();
    ASSERT_EQ(responses.size(), 3u);
    std::sort(responses.begin(), responses.end(),
              [](const Response &a, const Response &b) {
                  return a.id < b.id;
              });

    const RefreshDirectory &d0 = *cache.get(keys[0]).dir;
    const RefreshDirectory &d1 = *cache.get(keys[1]).dir;
    EXPECT_EQ(responses[0].status, ResponseStatus::Ok);
    EXPECT_EQ(responses[0].bin, d0.refreshBinFor(0, 17));
    EXPECT_DOUBLE_EQ(responses[0].interval, d0.rowInterval(0, 17));
    EXPECT_EQ(responses[1].status, ResponseStatus::Ok);
    EXPECT_EQ(responses[1].weak, d1.isRowWeak(0, 23));
    EXPECT_EQ(responses[2].status, ResponseStatus::UnknownProfile);
}

TEST(QueryEngine, BoundedQueueRejectsWhenSaturated)
{
    campaign::ProfileStore store(scratchDir("engine_reject"));
    auto keys = populateStore(store, 1);
    ProfileCache cache(store, testCacheConfig());
    Metrics metrics;

    // A sink that blocks the single worker until released, so the
    // queue genuinely fills up.
    std::mutex gate_mtx;
    std::condition_variable gate_cv;
    bool released = false;
    std::atomic<bool> worker_blocked{false};
    auto sink = [&](const Response &) {
        if (!worker_blocked.exchange(true)) {
            std::unique_lock<std::mutex> lock(gate_mtx);
            gate_cv.wait(lock, [&] { return released; });
        }
    };

    EngineConfig cfg = engineConfig(1, /*capacity=*/4);
    cfg.batchSize = 1;
    QueryEngine engine(cache, cfg, &metrics, sink);

    auto makeReq = [&](uint64_t id) {
        return Request{id, QueryKind::RefreshBin, keys[0], 0, id};
    };
    // First request occupies the worker (blocked in the sink).
    ASSERT_EQ(engine.trySubmit(makeReq(0)),
              QueryEngine::Submit::Accepted);
    while (!worker_blocked.load())
        std::this_thread::yield();
    // Now fill the queue to capacity...
    for (uint64_t id = 1; id <= 4; ++id)
        ASSERT_EQ(engine.trySubmit(makeReq(id)),
                  QueryEngine::Submit::Accepted);
    // ...and the next submissions bounce immediately, without blocking.
    EXPECT_EQ(engine.trySubmit(makeReq(5)),
              QueryEngine::Submit::Rejected);
    EXPECT_EQ(engine.trySubmit(makeReq(6)),
              QueryEngine::Submit::Rejected);
    EXPECT_EQ(metrics.snapshot().rejected, 2u);

    {
        std::lock_guard<std::mutex> lock(gate_mtx);
        released = true;
    }
    gate_cv.notify_all();
    engine.drain();
    // Every accepted request was answered; the rejected ones were not.
    EXPECT_EQ(engine.accepted(), 5u);
    EXPECT_EQ(engine.completed(), 5u);
}

TEST(QueryEngine, GracefulDrainLosesNoAcceptedRequest)
{
    campaign::ProfileStore store(scratchDir("engine_drain"));
    auto keys = populateStore(store, 3);
    ProfileCache cache(store, testCacheConfig());
    QueryEngine engine(cache, engineConfig(4));

    uint64_t submitted = 0;
    for (uint64_t id = 0; id < 500; ++id)
        if (engine.trySubmit({id, QueryKind::RefreshBin,
                              keys[id % keys.size()], 0, id % kRows}) ==
            QueryEngine::Submit::Accepted)
            ++submitted;
    engine.drain();
    EXPECT_EQ(engine.completed(), submitted);
    auto responses = engine.takeResponses();
    ASSERT_EQ(responses.size(), submitted);
    // Exactly one response per accepted id.
    std::vector<uint64_t> ids;
    for (const auto &r : responses)
        ids.push_back(r.id);
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) ==
                ids.end());

    // After drain the engine refuses new work.
    EXPECT_EQ(engine.trySubmit({9999, QueryKind::IsRowWeak, keys[0], 0,
                                0}),
              QueryEngine::Submit::Stopped);
    // Idempotent.
    engine.drain();
}

// ---------------- Descriptors ----------------

/**
 * Lowers this process's soft RLIMIT_NOFILE for the object's lifetime;
 * exhaust() also fills every free descriptor slot below it, so the
 * next open() fails with EMFILE. The destructor closes the fillers
 * and restores the limit.
 */
class SoftFdLimit
{
  public:
    explicit SoftFdLimit(rlim_t soft)
    {
        EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
        rlimit low = saved_;
        low.rlim_cur = std::min(soft, saved_.rlim_cur);
        EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
    }
    SoftFdLimit(const SoftFdLimit &) = delete;
    SoftFdLimit &operator=(const SoftFdLimit &) = delete;
    ~SoftFdLimit() { restore(); }

    /** Open /dev/null until the table is full; returns that errno. */
    int exhaust()
    {
        for (;;) {
            int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
            if (fd < 0)
                return errno;
            fillers_.push_back(fd);
        }
    }

    void restore()
    {
        for (int fd : fillers_)
            ::close(fd);
        fillers_.clear();
        ::setrlimit(RLIMIT_NOFILE, &saved_);
    }

  private:
    rlimit saved_{};
    std::vector<int> fillers_;
};

/** Entries in /proc/self/fd (the iterator's own descriptor included,
 *  so counts taken the same way compare). */
size_t
openDescriptors()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto &entry :
         fs::directory_iterator("/proc/self/fd"))
        ++n;
    return n;
}

// A stored profile that cannot be opened (here: the process is out of
// descriptors) is not an unknown profile. The engine answers
// RetryLater (the wire's Rejected), nothing is negatively cached, and
// once descriptors are back the same key answers Ok without
// invalidate().
TEST(QueryEngine, UnreadableProfileIsRetriedNotCachedAsUnknown)
{
    campaign::ProfileStore store(scratchDir("engine_emfile"));
    auto keys = populateStore(store, 1);
    Request req;
    req.kind = QueryKind::IsRowWeak;
    req.key = keys[0];
    for (bool views : {false, true}) {
        SCOPED_TRACE(views ? "views" : "directories");
        CacheConfig cfg = testCacheConfig();
        cfg.serveFromViews = views;
        ProfileCache cache(store, cfg);
        auto answerOnce = [&] {
            QueryEngine engine(cache, engineConfig(1));
            EXPECT_EQ(engine.trySubmit(req),
                      QueryEngine::Submit::Accepted);
            engine.drain();
            std::vector<Response> out = engine.takeResponses();
            EXPECT_EQ(out.size(), 1u);
            return out.empty() ? Response{} : out[0];
        };

        Response starved;
        {
            SoftFdLimit limit(32);
            ASSERT_EQ(limit.exhaust(), EMFILE);
            starved = answerOnce();
        }
        EXPECT_NE(starved.status, ResponseStatus::UnknownProfile);
        EXPECT_EQ(starved.status, ResponseStatus::RetryLater);
        EXPECT_EQ(starved.source, CacheOutcome::Failed);

        Response again = answerOnce();
        EXPECT_EQ(again.status, ResponseStatus::Ok);
        EXPECT_EQ(again.source, CacheOutcome::Miss);
        EXPECT_EQ(cache.counters().negativeHits, 0u);
    }
}

// Every view the cache keeps holds a descriptor. With the soft limit
// at 64, lookups across 256 keys must all be answered, the process
// must stay under the limit throughout, and destroying the cache must
// give every descriptor back.
TEST(ProfileCache, ViewDescriptorsStayUnderTheSoftLimit)
{
    campaign::ProfileStore store(scratchDir("cache_fd_bound"));
    auto keys = populateStore(store, 256, 50);
    CacheConfig cfg = testCacheConfig();
    cfg.serveFromViews = true;

    SoftFdLimit limit(64);
    const size_t before = openDescriptors();
    {
        ProfileCache cache(store, cfg); // reads the lowered limit
        for (int round = 0; round < 2; ++round) {
            for (size_t k = 0; k < keys.size(); ++k) {
                ViewAnswer a = cache.isRowWeakView(keys[k], 0, k);
                ASSERT_EQ(a.state, ViewState::Answered)
                    << "round " << round << " key " << keys[k];
                ASSERT_LT(openDescriptors(), 64u)
                    << "round " << round << " key " << keys[k];
            }
        }
        EXPECT_GT(cache.counters().evictions, 0u);
        EXPECT_LE(cache.counters().entries, 32u);
    }
    EXPECT_EQ(openDescriptors(), before)
        << "a destroyed cache left descriptors open";
}

// ---------------- Metrics ----------------

TEST(Metrics, PercentilesAndJson)
{
    Metrics m;
    for (int i = 0; i < 90; ++i)
        m.recordLatency(1e-6); // 90 fast requests at ~1 µs
    for (int i = 0; i < 10; ++i)
        m.recordLatency(1e-3); // 10 slow at ~1 ms
    m.recordHit();
    m.recordRejected();

    MetricsSnapshot s = m.snapshot();
    EXPECT_EQ(s.completed, 100u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.rejected, 1u);
    // p50 lands in the µs decade, p99 in the ms decade.
    EXPECT_LT(s.p50Us, 10.0);
    EXPECT_GT(s.p99Us, 100.0);
    EXPECT_GE(s.p95Us, s.p50Us);
    EXPECT_GE(s.p99Us, s.p95Us);
    EXPECT_GE(s.maxUs, s.p99Us);

    std::string json = m.json();
    EXPECT_NE(json.find("\"completed\": 100"), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);

    m.reset();
    EXPECT_EQ(m.snapshot().completed, 0u);
    EXPECT_EQ(m.snapshot().p99Us, 0.0);
}

// ---------------- Workload ----------------

TEST(Workload, DeterministicAndZipfSkewed)
{
    WorkloadConfig wc;
    for (int i = 0; i < 16; ++i)
        wc.keys.push_back("chip-" + std::to_string(i));
    wc.zipfExponent = 1.2;
    wc.unknownFraction = 0.05;

    Workload a(wc, 5), b(wc, 5);
    size_t hottest = 0, unknown = 0;
    for (int i = 0; i < 5000; ++i) {
        Request ra = a.next(), rb = b.next();
        ASSERT_EQ(ra.id, rb.id);
        ASSERT_EQ(ra.key, rb.key);
        ASSERT_EQ(ra.row, rb.row);
        ASSERT_EQ(ra.kind, rb.kind);
        hottest += ra.key == wc.keys[0];
        unknown += ra.key.rfind("ghost-", 0) == 0;
    }
    // Rank-0 dominates under zipf(1.2) over 16 keys (~30% of traffic).
    EXPECT_GT(hottest, 1000u);
    // Unknown mix near the configured 5%.
    EXPECT_GT(unknown, 100u);
    EXPECT_LT(unknown, 600u);
}

} // namespace
} // namespace serve
} // namespace reaper
