#include "serve/query_engine.h"

#include <algorithm>

#include "obs/obs.h"

namespace reaper {
namespace serve {

QueryEngine::QueryEngine(ProfileCache &cache, EngineConfig cfg,
                         Metrics *metrics, ResponseSink sink)
    : cache_(cache), cfg_(cfg), metrics_(metrics),
      sink_(std::move(sink))
{
    cfg_.workers = std::max(1u, cfg_.workers);
    cfg_.queueCapacity = std::max<size_t>(1, cfg_.queueCapacity);
    cfg_.batchSize = std::max<size_t>(1, cfg_.batchSize);
    workers_.reserve(cfg_.workers);
    for (unsigned i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

QueryEngine::~QueryEngine()
{
    drain();
}

QueryEngine::Submit
QueryEngine::trySubmit(Request req)
{
    auto now = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(mtx_);
        if (!accepting_)
            return Submit::Stopped;
        if (queue_.size() >= cfg_.queueCapacity) {
            if (metrics_)
                metrics_->recordRejected();
            return Submit::Rejected;
        }
        queue_.push_back({std::move(req), now});
        ++accepted_;
    }
    queue_cv_.notify_one();
    return Submit::Accepted;
}

size_t
QueryEngine::trySubmitBatch(std::vector<Request> &reqs, size_t offset)
{
    if (offset >= reqs.size())
        return 0;
    auto now = std::chrono::steady_clock::now();
    size_t taken = 0;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        if (!accepting_)
            return 0;
        size_t free = cfg_.queueCapacity > queue_.size()
                          ? cfg_.queueCapacity - queue_.size()
                          : 0;
        taken = std::min(free, reqs.size() - offset);
        for (size_t i = 0; i < taken; ++i)
            queue_.push_back({std::move(reqs[offset + i]), now});
        accepted_ += taken;
        if (taken < reqs.size() - offset && metrics_)
            metrics_->recordRejected();
    }
    if (taken > 0)
        queue_cv_.notify_all();
    return taken;
}

void
QueryEngine::drain()
{
    {
        std::lock_guard<std::mutex> lock(mtx_);
        if (!accepting_ && workers_.empty())
            return;
        accepting_ = false;
    }
    queue_cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
    workers_.clear();
}

std::vector<Response>
QueryEngine::takeResponses()
{
    std::lock_guard<std::mutex> lock(mtx_);
    std::vector<Response> out = std::move(collected_);
    collected_.clear();
    return out;
}

uint64_t
QueryEngine::accepted() const
{
    std::lock_guard<std::mutex> lock(mtx_);
    return accepted_;
}

uint64_t
QueryEngine::completed() const
{
    return completed_.load(std::memory_order_relaxed);
}

Response
QueryEngine::answer(const Request &req)
{
    Response resp;
    resp.id = req.id;
    // View-first: a point lookup through the lazy ProfileView decodes
    // at most one block instead of loading + compiling the whole
    // profile, so a cold miss no longer scales with profile size. The
    // answers are bit-identical to the compiled exact table: weak →
    // bin 0, clean → default bin, exactly RefreshDirectory::compile's
    // assignment — so determinism across worker counts is preserved.
    // (isRowWeakView declines under Bloom directories, whose
    // one-sided answers would diverge.)
    if (cache_.config().serveFromViews) {
        ViewAnswer va =
            cache_.isRowWeakView(req.key, req.chip, req.row);
        if (va.state == ViewState::Unknown) {
            resp.source = va.source;
            resp.status = ResponseStatus::UnknownProfile;
            return resp;
        }
        if (va.state == ViewState::Answered) {
            resp.source = va.source;
            resp.status = ResponseStatus::Ok;
            resp.weak = va.weak;
            if (req.kind == QueryKind::RefreshBin) {
                const std::vector<Seconds> &bins =
                    cache_.config().directory.binIntervals;
                resp.bin = va.weak
                               ? 0
                               : static_cast<uint32_t>(bins.size() - 1);
                resp.interval = bins.at(resp.bin);
            }
            return resp;
        }
        // Unavailable: fall through to the compiled-directory path.
    }
    CacheResult cached = cache_.get(req.key);
    resp.source = cached.outcome;
    if (!cached.dir) {
        resp.status = cached.outcome == CacheOutcome::Failed
                          ? ResponseStatus::RetryLater
                          : ResponseStatus::UnknownProfile;
        return resp;
    }
    const RefreshDirectory &dir = *cached.dir;
    resp.status = ResponseStatus::Ok;
    resp.weak = dir.isRowWeak(req.chip, req.row);
    if (req.kind == QueryKind::RefreshBin) {
        resp.bin = dir.refreshBinFor(req.chip, req.row);
        resp.interval = dir.config().binIntervals.at(resp.bin);
    }
    return resp;
}

void
QueryEngine::deliver(const Response &resp, double latency_s,
                     CacheOutcome source)
{
    if (metrics_) {
        switch (source) {
        case CacheOutcome::Hit:
            metrics_->recordHit();
            break;
        case CacheOutcome::Miss:
        case CacheOutcome::Failed:
            metrics_->recordMiss();
            break;
        case CacheOutcome::NegativeHit:
            metrics_->recordNegativeHit();
            break;
        case CacheOutcome::NotFound:
            metrics_->recordUnknown();
            break;
        }
        metrics_->recordLatency(latency_s);
    }
    if (sink_) {
        sink_(resp);
    } else {
        std::lock_guard<std::mutex> lock(mtx_);
        collected_.push_back(resp);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
}

void
QueryEngine::workerLoop()
{
    std::vector<Timed> batch;
    batch.reserve(cfg_.batchSize);
    for (;;) {
        batch.clear();
        {
            std::unique_lock<std::mutex> lock(mtx_);
            queue_cv_.wait(lock, [this] {
                return !queue_.empty() || !accepting_;
            });
            if (queue_.empty() && !accepting_)
                return;
            size_t take = std::min(cfg_.batchSize, queue_.size());
            for (size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
        }
        REAPER_OBS_SPAN(batchSpan, "serve.batch");
        REAPER_OBS_COUNT_N("serve.requests", batch.size());
        for (const Timed &t : batch) {
            Response resp = answer(t.req);
            double latency =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t.enqueued)
                    .count();
            deliver(resp, latency, resp.source);
        }
    }
}

} // namespace serve
} // namespace reaper
