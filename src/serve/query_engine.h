/**
 * @file
 * Metered profile-query request engine.
 *
 * The serving boundary of the system: producers submit point lookups
 * ("is row r of chip c weak?", "which refresh bin?") against profile
 * keys, and a fixed pool of workers answers them through the
 * ProfileCache. The engine enforces the disciplines a memory-
 * controller-facing service needs:
 *
 *  - **Bounded queue + explicit backpressure.** trySubmit never blocks
 *    the producer: a full queue returns Submit::Rejected immediately
 *    (counted in Metrics), so overload degrades by shedding, not by
 *    deadlocking the caller.
 *  - **Batch dequeue.** Workers drain up to batchSize requests per
 *    wakeup, amortizing the queue lock the same way the fleet engine
 *    chunks its task counter.
 *  - **Deterministic results.** A response depends only on its request
 *    and the store contents, and is keyed by the request id — the set
 *    of responses is identical at any worker count (tests/
 *    test_serve.cc runs the same stream at 1, 2, and 8 workers).
 *  - **Graceful drain.** drain() stops accepting, lets the workers
 *    finish every accepted request, and joins them: accepted requests
 *    are never dropped.
 *
 * Responses are delivered through a user sink (called concurrently
 * from workers) or, by default, collected internally and handed out by
 * takeResponses() after drain().
 */

#ifndef REAPER_SERVE_QUERY_ENGINE_H
#define REAPER_SERVE_QUERY_ENGINE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/units.h"
#include "serve/metrics.h"
#include "serve/profile_cache.h"

namespace reaper {
namespace serve {

/** What a request asks of the directory. */
enum class QueryKind
{
    IsRowWeak,  ///< any profiled failing cell in the row?
    RefreshBin, ///< RAIDR bin index + interval for the row
};

/** One profile lookup. */
struct Request
{
    uint64_t id = 0;       ///< caller-chosen correlation id
    QueryKind kind = QueryKind::RefreshBin;
    std::string key;       ///< profile key (ProfileStore::profileKey)
    uint32_t chip = 0;
    uint64_t row = 0;
};

/** Terminal status of a request. */
enum class ResponseStatus
{
    Ok,             ///< answered from a compiled directory
    UnknownProfile, ///< no profile stored under the key
    RetryLater,     ///< profile stored but unreadable right now
                    ///< (e.g. out of descriptors) — safe to retry
};

/** The answer to one request, keyed by the request id. */
struct Response
{
    uint64_t id = 0;
    ResponseStatus status = ResponseStatus::Ok;
    bool weak = false;     ///< IsRowWeak answer (also filled for bins)
    uint32_t bin = 0;      ///< RefreshBin answer
    Seconds interval = 0;  ///< binIntervals[bin]
    /** How the cache served it (Hit/Miss/...); informational only —
     *  not deterministic across worker counts. */
    CacheOutcome source = CacheOutcome::NotFound;
};

/** Engine shape. */
struct EngineConfig
{
    unsigned workers = 4;
    size_t queueCapacity = 4096;
    /** Max requests a worker takes per queue lock acquisition. */
    size_t batchSize = 32;
};

/** Multi-worker request engine over a ProfileCache. */
class QueryEngine
{
  public:
    using ResponseSink = std::function<void(const Response &)>;

    /** Outcome of a submission attempt. */
    enum class Submit
    {
        Accepted,
        Rejected, ///< queue full (backpressure) — retry later
        Stopped,  ///< engine is draining/stopped
    };

    /**
     * Start the worker pool. `sink`, when given, is invoked from
     * worker threads (must be thread-safe); otherwise responses are
     * collected for takeResponses(). `metrics` may be shared across
     * engines; null disables metering.
     */
    QueryEngine(ProfileCache &cache, EngineConfig cfg,
                Metrics *metrics = nullptr,
                ResponseSink sink = nullptr);

    /** Drains and joins the workers. */
    ~QueryEngine();

    QueryEngine(const QueryEngine &) = delete;
    QueryEngine &operator=(const QueryEngine &) = delete;

    /**
     * Enqueue a request without ever blocking: full queue -> Rejected,
     * draining engine -> Stopped. Accepted requests are guaranteed a
     * response (even across drain()).
     */
    Submit trySubmit(Request req);

    /**
     * Enqueue a batch under one lock acquisition (the producer-side
     * mirror of batch dequeue). Accepts a prefix of `reqs` up to the
     * free queue capacity and returns its length; the caller retries
     * the rest after backpressure clears. Returns 0 when stopped (a
     * rejected remainder is also counted once in Metrics).
     */
    size_t trySubmitBatch(std::vector<Request> &reqs, size_t offset);

    /**
     * Stop accepting, process everything already accepted, and join
     * the workers. Idempotent.
     */
    void drain();

    /**
     * The internally collected responses (only when no sink was
     * given), cleared on return. Call after drain() for the complete
     * set.
     */
    std::vector<Response> takeResponses();

    /** Requests accepted so far. */
    uint64_t accepted() const;
    /** Requests answered so far. */
    uint64_t completed() const;

    const EngineConfig &config() const { return cfg_; }

  private:
    struct Timed
    {
        Request req;
        std::chrono::steady_clock::time_point enqueued;
    };

    void workerLoop();
    Response answer(const Request &req);
    void deliver(const Response &resp, double latency_s,
                 CacheOutcome source);

    ProfileCache &cache_;
    EngineConfig cfg_;
    Metrics *metrics_;
    ResponseSink sink_;

    mutable std::mutex mtx_;
    std::condition_variable queue_cv_;
    std::deque<Timed> queue_;
    bool accepting_ = true;
    uint64_t accepted_ = 0;
    std::atomic<uint64_t> completed_{0};
    std::vector<Response> collected_;
    std::vector<std::thread> workers_;
};

} // namespace serve
} // namespace reaper

#endif // REAPER_SERVE_QUERY_ENGINE_H
