#include "serve/profile_cache.h"

#include <algorithm>
#include <functional>
#include <iterator>

#include <sys/resource.h>

namespace reaper {
namespace serve {

namespace {

size_t
roundUpPow2(size_t n)
{
    size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/**
 * Nominal accounted size of a retained ProfileView. A view reads its
 * file on demand and keeps only the header, the block index and the
 * blocks it has decoded, so charging the file size would evict
 * everything for bytes that are not resident. Point lookups keep the
 * decoded-block memo to a handful of blocks.
 */
constexpr size_t kViewEntryBytes = 4096;

/** Half of the soft RLIMIT_NOFILE: the most views a cache keeps open,
 *  leaving the other half to the rest of the process. */
size_t
openViewBound()
{
    struct rlimit rl;
    if (::getrlimit(RLIMIT_NOFILE, &rl) != 0 ||
        rl.rlim_cur == RLIM_INFINITY)
        return SIZE_MAX;
    return static_cast<size_t>(rl.rlim_cur / 2);
}

} // namespace

ProfileCache::ProfileCache(const campaign::ProfileStore &store,
                           CacheConfig cfg)
    : store_(store),
      cfg_(cfg),
      hits_(registry_.counter("cache.hits")),
      misses_(registry_.counter("cache.misses")),
      negativeHits_(registry_.counter("cache.negative_hits")),
      loads_(registry_.counter("cache.loads")),
      failedLoads_(registry_.counter("cache.failed_loads")),
      viewHits_(registry_.counter("cache.view_hits")),
      viewLoads_(registry_.counter("cache.view_loads")),
      evictions_(registry_.counter("cache.evictions")),
      bytes_(registry_.gauge("cache.bytes")),
      entries_(registry_.gauge("cache.entries"))
{
    size_t n = roundUpPow2(std::max<size_t>(cfg_.shards, 1));
    cfg_.shards = n;
    shardCapacity_ = std::max<size_t>(cfg_.capacityBytes / n, 1);
    shardViews_ = std::max<size_t>(openViewBound() / n, 1);
    shards_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

ProfileCache::Shard &
ProfileCache::shardFor(const std::string &key)
{
    size_t h = std::hash<std::string>{}(key);
    return *shards_[h & (shards_.size() - 1)];
}

CacheResult
ProfileCache::loadAndCompile(
    const std::string &key,
    std::shared_ptr<const profiling::ProfileView> *viewOut)
{
    common::Expected<profiling::ProfileView> opened =
        store_.openView(key);
    if (opened) {
        auto view = std::make_shared<const profiling::ProfileView>(
            std::move(opened).value());
        common::Expected<RefreshDirectory> compiled =
            RefreshDirectory::compileView(*view, cfg_.directory);
        if (compiled) {
            if (viewOut && cfg_.serveFromViews)
                *viewOut = view;
            return {std::make_shared<const RefreshDirectory>(
                        std::move(compiled).value()),
                    CacheOutcome::Miss};
        }
    } else if (opened.error().category ==
               common::ErrorCategory::NotFound) {
        return {nullptr, CacheOutcome::NotFound};
    }
    // v1 text base (no block index), or a view that would not open or
    // decode: the eager sniffing reader is the robust path.
    common::Expected<profiling::RetentionProfile> profile =
        store_.load(key);
    if (!profile)
        return {nullptr, profile.error().category ==
                                 common::ErrorCategory::NotFound
                             ? CacheOutcome::NotFound
                             : CacheOutcome::Failed};
    auto dir = std::make_shared<const RefreshDirectory>(
        RefreshDirectory::compile(profile.value(), cfg_.directory));
    return {std::move(dir), CacheOutcome::Miss};
}

void
ProfileCache::eraseLocked(
    Shard &shard, std::unordered_map<std::string, Entry>::iterator it)
{
    shard.bytes -= it->second.bytes;
    if (it->second.view)
        --shard.views;
    bytes_.add(-static_cast<int64_t>(it->second.bytes));
    entries_.add(-1);
    shard.lru.erase(it->second.lruPos);
    shard.map.erase(it);
}

void
ProfileCache::insertLocked(
    Shard &shard, const std::string &key,
    std::shared_ptr<const RefreshDirectory> dir,
    std::shared_ptr<const profiling::ProfileView> view, bool negative)
{
    auto old = shard.map.find(key);
    if (old != shard.map.end()) {
        // Replacement (e.g. a compile upgrading a view-only entry):
        // keep the old view rather than dropping its decoded blocks.
        if (!view && !negative)
            view = old->second.view;
        eraseLocked(shard, old);
    }
    size_t bytes = key.size();
    if (negative)
        bytes += cfg_.negativeEntryBytes;
    if (dir)
        bytes += dir->sizeBytes();
    if (view) {
        bytes += kViewEntryBytes;
        ++shard.views;
    }
    shard.lru.push_front(key);
    Entry entry{std::move(dir), std::move(view), negative, bytes,
                shard.lru.begin()};
    shard.map[key] = std::move(entry);
    shard.bytes += bytes;
    bytes_.add(static_cast<int64_t>(bytes));
    entries_.add(1);

    // Evict LRU entries until we fit the byte budget and the view
    // share; never the one just inserted (an oversized directory
    // stays resident alone rather than thrashing — readers still
    // need it).
    while (shard.lru.size() > 1) {
        auto victim = std::prev(shard.lru.end());
        if (shard.bytes <= shardCapacity_) {
            if (shard.views <= shardViews_)
                break;
            // Only the descriptor bound is exceeded: the least
            // recently used view entry goes. At least two entries
            // hold views, so one sits behind the front.
            while (!shard.map.find(*victim)->second.view)
                --victim;
        }
        evictions_.add();
        eraseLocked(shard, shard.map.find(*victim));
    }
}

CacheResult
ProfileCache::get(const std::string &key)
{
    Shard &shard = shardFor(key);
    std::unique_lock<std::mutex> lock(shard.mtx);

    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru,
                         it->second.lruPos);
        if (it->second.dir) {
            hits_.add();
            return {it->second.dir, CacheOutcome::Hit};
        }
        if (it->second.negative) {
            negativeHits_.add();
            return {nullptr, CacheOutcome::NegativeHit};
        }
        // View-only entry: get() promised a compiled directory, so
        // fall through to the load path (which keeps the view).
    }

    misses_.add();
    auto in = shard.inflight.find(key);
    if (in != shard.inflight.end()) {
        // Singleflight: ride the load already in progress.
        std::shared_ptr<Inflight> flight = in->second;
        flight->done.wait(lock, [&] { return flight->finished; });
        return flight->result;
    }

    auto flight = std::make_shared<Inflight>();
    shard.inflight.emplace(key, flight);
    lock.unlock();

    std::shared_ptr<const profiling::ProfileView> view;
    CacheResult result = loadAndCompile(key, &view);

    lock.lock();
    loads_.add();
    if (result.dir)
        insertLocked(shard, key, result.dir, std::move(view), false);
    else {
        failedLoads_.add();
        // Only absence is remembered: a profile that exists but could
        // not be read (EMFILE, I/O error, corruption) is tried again
        // by the next lookup.
        if (cfg_.negativeCache &&
            result.outcome == CacheOutcome::NotFound)
            insertLocked(shard, key, nullptr, nullptr, true);
    }
    flight->result = result;
    flight->finished = true;
    shard.inflight.erase(key);
    flight->done.notify_all();
    return result;
}

ViewAnswer
ProfileCache::isRowWeakView(const std::string &key, uint32_t chip,
                            uint64_t row)
{
    // Bloom directories give one-sided answers; the exact view answer
    // would diverge, so the view path declines and get() decides.
    if (!cfg_.serveFromViews || cfg_.directory.useBloomFilters)
        return {ViewState::Unavailable, false, CacheOutcome::NotFound};

    Shard &shard = shardFor(key);
    std::shared_ptr<const profiling::ProfileView> view;
    CacheOutcome source = CacheOutcome::Hit;
    {
        std::lock_guard<std::mutex> lock(shard.mtx);
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            shard.lru.splice(shard.lru.begin(), shard.lru,
                             it->second.lruPos);
            if (it->second.negative) {
                negativeHits_.add();
                return {ViewState::Unknown, false,
                        CacheOutcome::NegativeHit};
            }
            view = it->second.view;
            if (!view && it->second.dir) {
                // Compiled-but-viewless entry (e.g. a v1 text base):
                // the exact table answers just as well.
                hits_.add();
                return {ViewState::Answered,
                        it->second.dir->isRowWeak(chip, row),
                        CacheOutcome::Hit};
            }
        }
        if (view)
            viewHits_.add();
    }

    if (!view) {
        // Cold key: open a lazy view — header, footer and index
        // reads, no decode, no compile. Opens are cheap, so no
        // singleflight here; a racing opener just discards its view
        // for the winner's.
        common::Expected<profiling::ProfileView> opened =
            store_.openView(key);
        if (!opened) {
            if (opened.error().category ==
                common::ErrorCategory::NotFound) {
                std::lock_guard<std::mutex> lock(shard.mtx);
                failedLoads_.add();
                if (cfg_.negativeCache &&
                    shard.map.find(key) == shard.map.end())
                    insertLocked(shard, key, nullptr, nullptr, true);
                return {ViewState::Unknown, false,
                        CacheOutcome::NotFound};
            }
            // v1 text base or unreadable file: let get() handle it.
            return {ViewState::Unavailable, false,
                    CacheOutcome::NotFound};
        }
        view = std::make_shared<const profiling::ProfileView>(
            std::move(opened).value());
        viewLoads_.add();
        source = CacheOutcome::Miss;
        std::lock_guard<std::mutex> lock(shard.mtx);
        auto it = shard.map.find(key);
        if (it != shard.map.end() && it->second.view)
            view = it->second.view; // lost the race: use the winner's
        else
            insertLocked(shard, key,
                         it != shard.map.end() ? it->second.dir
                                               : nullptr,
                         view, false);
    }

    uint64_t rowBits = cfg_.directory.rowBits;
    dram::ChipFailure lo{chip, row * rowBits};
    dram::ChipFailure hi{chip, (row + 1) * rowBits - 1};
    common::Expected<bool> any = view->anyInRange(lo, hi);
    if (!any) // damaged block: the eager path re-reads and reports
        return {ViewState::Unavailable, false, source};
    return {ViewState::Answered, any.value(), source};
}

void
ProfileCache::invalidate(const std::string &key)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mtx);
    auto it = shard.map.find(key);
    if (it != shard.map.end())
        eraseLocked(shard, it);
}

CacheCounters
ProfileCache::counters() const
{
    CacheCounters total;
    total.hits = hits_.value();
    total.misses = misses_.value();
    total.negativeHits = negativeHits_.value();
    total.loads = loads_.value();
    total.failedLoads = failedLoads_.value();
    total.viewHits = viewHits_.value();
    total.viewLoads = viewLoads_.value();
    total.evictions = evictions_.value();
    total.bytes = static_cast<uint64_t>(bytes_.value());
    total.entries = static_cast<uint64_t>(entries_.value());
    return total;
}

} // namespace serve
} // namespace reaper
