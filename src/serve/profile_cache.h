/**
 * @file
 * Sharded, byte-accounted LRU cache of compiled RefreshDirectory
 * objects over a campaign::ProfileStore.
 *
 * The serving hot path must not touch the filesystem: loading a
 * profile file and compiling it into a directory costs milliseconds,
 * while a cached lookup costs nanoseconds. The cache sits between the
 * QueryEngine and the store with three properties:
 *
 *  - **Sharding.** Keys hash to one of N independent shards (each its
 *    own mutex + LRU list), so concurrent workers rarely contend on
 *    the same lock.
 *  - **Singleflight loading.** Concurrent misses on one key share a
 *    single store load + compile: the first requester loads while the
 *    rest wait on the in-flight slot's condition variable. K parallel
 *    cold gets on a key perform exactly one ProfileStore::load
 *    (verified by tests/test_serve.cc).
 *  - **Negative caching.** A key absent from the store is remembered
 *    (with a small byte charge), so repeated lookups of unknown chips
 *    do not hammer the store index. Committing a new profile requires
 *    invalidate() to drop the negative entry. Only absence is
 *    remembered: a stored profile that cannot be read (out of
 *    descriptors, I/O error, corruption) yields CacheOutcome::Failed
 *    and the next lookup tries the store again.
 *  - **View serving (opt-in).** With CacheConfig::serveFromViews, a
 *    point lookup on a cold key goes through isRowWeakView(): the
 *    cache opens a lazy profiling::ProfileView (three preads of the
 *    header, footer and index — no full decode, no compile) and
 *    answers the row query from at most one decoded block, so
 *    cold-miss latency stops scaling with profile size. Views ride
 *    the same LRU entries as directories; opens are cheap enough that
 *    cold view lookups skip the singleflight machinery (racing
 *    openers discard the losing view).
 *
 * Eviction is byte-accounted: each shard holds capacityBytes/shards
 * and evicts least-recently-used entries when an insert overflows it.
 * Evicted directories stay alive for any reader still holding the
 * shared_ptr — eviction only drops the cache's reference. A view
 * entry is charged a small nominal size (see kViewEntryBytes).
 *
 * Every retained view holds an open file descriptor, so the cache
 * also bounds how many it keeps: at most half of the soft
 * RLIMIT_NOFILE read at construction, split evenly across the shards
 * (at least one per shard). A shard over its share evicts its
 * least-recently-used view entries.
 */

#ifndef REAPER_SERVE_PROFILE_CACHE_H
#define REAPER_SERVE_PROFILE_CACHE_H

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/profile_store.h"
#include "obs/metrics.h"
#include "serve/refresh_directory.h"

namespace reaper {
namespace serve {

/** Cache shape and compilation parameters. */
struct CacheConfig
{
    /** Shard count (rounded up to a power of two, min 1). */
    size_t shards = 8;
    /** Total capacity across shards, in accounted bytes. */
    size_t capacityBytes = 64ull * 1024 * 1024;
    /** How directories are compiled from stored profiles. */
    DirectoryConfig directory;
    /** Remember keys that are absent from the store. */
    bool negativeCache = true;
    /** Accounted size of one negative entry. */
    size_t negativeEntryBytes = 256;
    /**
     * Serve point lookups from lazy ProfileViews (isRowWeakView)
     * instead of requiring a compiled directory. Off by default:
     * existing callers keep byte-identical behavior. Ignored (view
     * lookups report Unavailable) when directory.useBloomFilters is
     * set, because Bloom answers are one-sided and would diverge from
     * the exact view answers.
     */
    bool serveFromViews = false;
};

/** How a get() was served. */
enum class CacheOutcome
{
    Hit,         ///< compiled directory already cached
    Miss,        ///< loaded from the store (or waited on that load)
    NegativeHit, ///< known-absent key served from the negative cache
    NotFound,    ///< key absent; this lookup consulted the store
    Failed,      ///< key stored but its profile could not be read;
                 ///< not remembered, so a later lookup retries
};

/** Result of one cache lookup. */
struct CacheResult
{
    /** The compiled directory; null for NegativeHit/NotFound/
     *  Failed. */
    std::shared_ptr<const RefreshDirectory> dir;
    CacheOutcome outcome = CacheOutcome::NotFound;
};

/** How a view-served point lookup resolved. */
enum class ViewState
{
    Answered,    ///< `weak` is the exact answer
    Unknown,     ///< key absent from the store
    Unavailable, ///< no view possible (views off, Bloom directories,
                 ///< v1 text base, corrupt block) — use get()
};

/** Result of one isRowWeakView() lookup. */
struct ViewAnswer
{
    ViewState state = ViewState::Unavailable;
    bool weak = false;
    /** How it was served (view/dir hit, cold open, negative). */
    CacheOutcome source = CacheOutcome::NotFound;
};

/**
 * Cache statistics snapshot. Counts live in cache-level relaxed
 * atomics (a private obs::MetricRegistry), not per-shard fields:
 * counters() is a pure lock-free snapshot instead of the old
 * lock-every-shard aggregation, which both stalled the serving path
 * and could double-count a request that raced shard mutation.
 */
struct CacheCounters
{
    uint64_t hits = 0;
    uint64_t misses = 0;       ///< get()s that could not be served hot
    uint64_t negativeHits = 0;
    uint64_t loads = 0;        ///< actual store load + compile runs
    uint64_t failedLoads = 0;  ///< loads that found no/unreadable
                               ///< profile
    uint64_t viewHits = 0;     ///< point lookups served from a view
    uint64_t viewLoads = 0;    ///< lazy view opens (cold point lookups)
    uint64_t evictions = 0;
    uint64_t bytes = 0;        ///< currently accounted bytes
    uint64_t entries = 0;      ///< resident positive + negative entries
};

/** Sharded singleflight LRU over a ProfileStore. */
class ProfileCache
{
  public:
    /** The store must outlive the cache. */
    ProfileCache(const campaign::ProfileStore &store, CacheConfig cfg);

    /**
     * Look up (loading and compiling on miss) the directory for a
     * profile key. Thread-safe; concurrent misses on one key share one
     * load. Never throws on unknown keys — they yield NotFound (and a
     * negative entry when enabled). A stored profile that cannot be
     * read yields Failed and leaves no entry.
     */
    CacheResult get(const std::string &key);

    /**
     * Point lookup through a lazy view: is any profiled failing cell
     * in row `row` of chip `chip`? On a cold key this opens a
     * ProfileView (header, footer and index reads) instead of
     * loading and compiling the whole profile, and the query itself
     * decodes at most one block. Returns Unavailable whenever the view path
     * cannot give the exact answer (serveFromViews off, Bloom
     * directories, v1 text base, unreadable file, corrupt block) — the
     * caller then falls back to get(). Thread-safe.
     */
    ViewAnswer isRowWeakView(const std::string &key, uint32_t chip,
                             uint64_t row);

    /**
     * Drop any entry (positive or negative) for a key, e.g. after a
     * new profile was committed to the store.
     */
    void invalidate(const std::string &key);

    /** Pure statistics snapshot (relaxed loads, no shard locks). */
    CacheCounters counters() const;

    size_t shardCount() const { return shards_.size(); }
    const CacheConfig &config() const { return cfg_; }

    /** The backing registry (e.g. for Prometheus text export). */
    const obs::MetricRegistry &registry() const { return registry_; }

  private:
    struct Entry
    {
        /** Compiled directory (may be null for view-only entries). */
        std::shared_ptr<const RefreshDirectory> dir;
        /** Lazy view for point lookups (serveFromViews only). */
        std::shared_ptr<const profiling::ProfileView> view;
        /** Key known absent from the store (dir and view are null). */
        bool negative = false;
        size_t bytes = 0;
        std::list<std::string>::iterator lruPos;
    };

    /** Singleflight slot for one in-flight load. */
    struct Inflight
    {
        std::condition_variable done;
        bool finished = false;
        CacheResult result;
    };

    struct Shard
    {
        mutable std::mutex mtx;
        std::unordered_map<std::string, Entry> map;
        /** Front = most recently used. */
        std::list<std::string> lru;
        std::unordered_map<std::string, std::shared_ptr<Inflight>>
            inflight;
        size_t bytes = 0;
        /** Resident entries holding a view (an open descriptor). */
        size_t views = 0;
    };

    Shard &shardFor(const std::string &key);
    /** Drop one resident entry and its accounting; caller holds the
     *  shard lock. */
    void eraseLocked(Shard &shard,
                     std::unordered_map<std::string, Entry>::iterator it);
    /**
     * Insert (or replace) under the shard lock, evicting LRU entries
     * to fit the shard's byte budget and its share of the descriptor
     * bound. A replacement keeps the old entry's view when the new
     * one has none, so a compile upgrade never drops a view.
     */
    void insertLocked(Shard &shard, const std::string &key,
                      std::shared_ptr<const RefreshDirectory> dir,
                      std::shared_ptr<const profiling::ProfileView> view,
                      bool negative);
    /**
     * Load + compile (no locks held). Prefers the store's lazy view
     * (openView + compileView — one fewer full cell-list copy) and
     * falls back to the eager load for v1 text bases; with
     * serveFromViews the opened view is returned through `viewOut`
     * for retention alongside the directory. A key the store does
     * not hold yields NotFound; any other failure yields Failed.
     */
    CacheResult loadAndCompile(
        const std::string &key,
        std::shared_ptr<const profiling::ProfileView> *viewOut);

    const campaign::ProfileStore &store_;
    CacheConfig cfg_;
    size_t shardCapacity_;
    /** Most view entries one shard keeps (see the file comment). */
    size_t shardViews_;
    std::vector<std::unique_ptr<Shard>> shards_;

    /** Private registry: per-cache counts, isolated per instance. */
    obs::MetricRegistry registry_;
    obs::Counter &hits_;
    obs::Counter &misses_;
    obs::Counter &negativeHits_;
    obs::Counter &loads_;
    obs::Counter &failedLoads_;
    obs::Counter &viewHits_;
    obs::Counter &viewLoads_;
    obs::Counter &evictions_;
    obs::Gauge &bytes_;
    obs::Gauge &entries_;
};

} // namespace serve
} // namespace reaper

#endif // REAPER_SERVE_PROFILE_CACHE_H
