#include "openloop.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <thread>

#include "ledger.h"
#include "stats.h"

namespace perfbench {

using reaper::common::Error;
using reaper::common::Expected;
using reaper::common::Status;
namespace net = reaper::net;
namespace serve = reaper::serve;

namespace {

constexpr size_t kReadChunkBytes = 64 * 1024;
/** Most requests per send: requests due together go out in batches. */
constexpr size_t kMaxBatch = 64;
/** After the last send, how long to wait for stragglers. */
constexpr double kDrainSeconds = 2.0;

/** CPU time of the calling thread, ns. */
uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

} // namespace

std::vector<double>
OpenLoopResult::latencies(bool includeRejected) const
{
    std::vector<double> out;
    out.reserve(latencyUs.size());
    for (size_t i = 0; i < latencyUs.size(); ++i) {
        if (latencyUs[i] < 0)
            continue;
        if (!includeRejected && answers[i].status == WireStatus::Rejected)
            continue;
        out.push_back(latencyUs[i]);
    }
    return out;
}

double
OpenLoopResult::windowedPercentile(double q, int windows) const
{
    std::vector<double> tails;
    const size_t w = static_cast<size_t>(std::max(windows, 1));
    for (size_t k = 0; k < w; ++k) {
        std::vector<double> slice;
        for (size_t i = k * sent / w; i < (k + 1) * sent / w; ++i) {
            bool missed = latencyUs[i] < 0 ||
                          answers[i].status == WireStatus::Rejected;
            slice.push_back(missed ? kInfiniteUs : latencyUs[i]);
        }
        if (!slice.empty())
            tails.push_back(percentile(std::move(slice), q));
    }
    return median(tails);
}

double
OpenLoopResult::windowedGoodput(double windowSeconds) const
{
    const double windowUs = windowSeconds * 1e6;
    const double scheduleUs = static_cast<double>(sent) * nsPerReq / 1e3;
    const size_t windows =
        std::max<size_t>(1, static_cast<size_t>(scheduleUs / windowUs));
    std::vector<double> counts(windows, 0.0);
    for (size_t i = 0; i < sent; ++i) {
        if (latencyUs[i] < 0 || answers[i].status == WireStatus::Rejected)
            continue;
        double at = static_cast<double>(i) * nsPerReq / 1e3 + latencyUs[i];
        size_t w = static_cast<size_t>(at / windowUs);
        if (w < windows)
            counts[w] += 1;
    }
    return median(counts) / windowSeconds;
}

OpenLoopResult
runOpenLoop(double rate, const std::vector<Query> &stream,
            const std::vector<std::string> &keys, Transport &transport)
{
    OpenLoopResult r;
    const size_t n = stream.size();
    r.latencyUs.assign(n, -1.0f);
    r.answers.resize(n);
    r.lagUs.reserve(n / 2 + 1);
    if (n == 0)
        return r;

    const double nsPerReq = 1e9 / rate;
    const uint64_t t0 = nowNs() + 1000000; // first request due in 1 ms
    r.t0Ns = t0;
    r.nsPerReq = nsPerReq;
    auto due = [&](size_t i) {
        return t0 + static_cast<uint64_t>(static_cast<double>(i) * nsPerReq);
    };
    Ledger &ledger = Ledger::global();
    const bool tracing = ledger.on();
    const uint64_t grace = static_cast<uint64_t>(kDrainSeconds * 1e9);
    const uint64_t cpu0 = threadCpuNs();

    // Precise waits: the default 50 µs timer slack would add up to
    // 50 µs of send lag to every batch.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    std::vector<serve::Request> batch;
    batch.reserve(kMaxBatch);
    std::vector<WireResponse> got;
    size_t i = 0; // next request to send
    uint64_t answered = 0;
    uint64_t lastSendNs = t0, lastAnswerNs = t0;
    for (;;) {
        uint64_t now = nowNs();
        if (i < n && due(i) <= now) {
            // Everything due goes out now, in batches.
            size_t j = i + 1;
            while (j < n && j - i < kMaxBatch && due(j) <= now)
                ++j;
            batch.resize(j - i);
            for (size_t k = i; k < j; ++k) {
                serve::Request &req = batch[k - i];
                const Query &q = stream[k];
                req.id = k;
                req.kind = q.kind;
                req.key = keys[q.key];
                req.chip = q.chip;
                req.row = q.row;
            }
            r.lagUs.push_back(static_cast<double>(now - due(i)) / 1e3);
            if (!transport.send(batch)) {
                r.transportError = true;
                break;
            }
            lastSendNs = nowNs();
            if (tracing)
                for (size_t k = i; k < j; ++k)
                    if (k % kTraceEvery == 0)
                        ledger.record("loadgen.send", due(k), lastSendNs, 0,
                                      k + 1);
            i = j;
        }
        if (i == n && (answered == n || now > lastSendNs + grace))
            break;
        // Wait for answers until the next request is due.
        now = nowNs();
        uint64_t wait = i < n ? (due(i) > now ? due(i) - now : 0)
                              : std::min<uint64_t>(grace, 20000000);
        got.clear();
        if (!transport.poll(got, wait)) {
            r.transportError = true;
            break;
        }
        const uint64_t t = got.empty() ? 0 : nowNs();
        for (const WireResponse &a : got) {
            if (a.id >= i || r.latencyUs[a.id] >= 0) {
                ++r.bogus;
                continue;
            }
            r.latencyUs[a.id] = static_cast<float>(t - due(a.id)) / 1e3f;
            r.answers[a.id] = {static_cast<float>(a.interval), a.bin,
                               a.status, a.weak};
            ++answered;
            lastAnswerNs = t;
            switch (a.status) {
            case WireStatus::Ok:
                ++r.ok;
                break;
            case WireStatus::NotFound:
                ++r.notFound;
                break;
            case WireStatus::Rejected:
                ++r.rejected;
                break;
            }
            if (tracing && a.id % kTraceEvery == 0)
                ledger.record("loadgen.request", due(a.id), t, 0, a.id + 1);
        }
    }
    r.sent = i;
    r.elapsed = static_cast<double>(lastAnswerNs - t0) / 1e9;
    r.sendSeconds = (static_cast<double>(lastSendNs - t0) + nsPerReq) / 1e9;
    r.cpuSeconds = static_cast<double>(threadCpuNs() - cpu0) / 1e9;
    return r;
}

// ---- WireTransport ---------------------------------------------------

Expected<std::unique_ptr<WireTransport>>
WireTransport::connect(const std::string &host, uint16_t port)
{
    auto sock = net::Socket::connectTcp(host, port);
    if (!sock)
        return sock.error();
    std::unique_ptr<WireTransport> t(new WireTransport());
    t->sock_ = std::move(sock.value());
    if (Status s = t->sock_.setNoDelay(true); !s)
        return s.error();
    net::encodeHello(t->sendBuf_);
    if (Status s = net::writeAll(t->sock_.fd(), t->sendBuf_.data(),
                                 t->sendBuf_.size());
        !s)
        return s.error();
    // The HelloAck is the only frame before any query is sent.
    for (int waited = 0; waited < 5000; waited += 50) {
        pollfd pfd{t->sock_.fd(), POLLIN, 0};
        int rc = ::poll(&pfd, 1, 50);
        if (rc < 0 && errno != EINTR)
            return Error::io(std::string("poll: ") + std::strerror(errno));
        if (rc <= 0)
            continue;
        if (!t->readSome())
            return Error::io("connection closed during handshake");
        net::FrameView frame;
        auto used = net::tryExtractFrame(t->inbuf_.data() + t->inStart_,
                                         t->inbuf_.size() - t->inStart_,
                                         t->limits_, &frame);
        if (!used)
            return used.error();
        if (used.value() == 0)
            continue;
        t->inStart_ += used.value();
        if (frame.opcode != net::Opcode::HelloAck)
            return Error::parse("expected HelloAck");
        auto ack = net::decodeHelloAck(frame);
        if (!ack)
            return ack.error();
        // From here on one thread both sends and receives, so neither
        // may block the other.
        if (Status s = t->sock_.setNonBlocking(true); !s)
            return s.error();
        t->sendBuf_.clear();
        return t;
    }
    return Error::io("handshake timed out");
}

bool
WireTransport::send(std::vector<serve::Request> &batch)
{
    const size_t before = sendBuf_.size();
    net::encodeQueryBatch(sendBuf_, batch.data(), batch.size());
    bytesOut_ += sendBuf_.size() - before;
    ++framesOut_;
    return flush();
}

bool
WireTransport::flush()
{
    while (sendStart_ < sendBuf_.size()) {
        ssize_t put = ::send(sock_.fd(), sendBuf_.data() + sendStart_,
                             sendBuf_.size() - sendStart_, MSG_NOSIGNAL);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true; // the rest goes when poll() sees POLLOUT
            return false;
        }
        sendStart_ += static_cast<size_t>(put);
    }
    sendBuf_.clear();
    sendStart_ = 0;
    return true;
}

bool
WireTransport::readSome()
{
    if (inStart_ == inbuf_.size()) {
        inbuf_.clear();
        inStart_ = 0;
    } else if (inStart_ > kReadChunkBytes) {
        inbuf_.erase(inbuf_.begin(),
                     inbuf_.begin() + static_cast<ptrdiff_t>(inStart_));
        inStart_ = 0;
    }
    const size_t old = inbuf_.size();
    inbuf_.resize(old + kReadChunkBytes);
    ssize_t got = ::recv(sock_.fd(), inbuf_.data() + old, kReadChunkBytes, 0);
    if (got <= 0) {
        inbuf_.resize(old);
        return got < 0 && (errno == EINTR || errno == EAGAIN ||
                           errno == EWOULDBLOCK);
    }
    inbuf_.resize(old + static_cast<size_t>(got));
    bytesIn_ += static_cast<uint64_t>(got);
    return true;
}

bool
WireTransport::drainFrames(std::vector<WireResponse> &out)
{
    for (;;) {
        net::FrameView frame;
        auto used = net::tryExtractFrame(inbuf_.data() + inStart_,
                                         inbuf_.size() - inStart_, limits_,
                                         &frame);
        if (!used)
            return false;
        if (used.value() == 0)
            return true;
        inStart_ += used.value();
        ++framesIn_;
        if (frame.opcode != net::Opcode::ResponseBatch)
            return false;
        if (!net::decodeResponseBatch(frame, limits_, out))
            return false;
    }
}

bool
WireTransport::poll(std::vector<WireResponse> &out, uint64_t waitNs)
{
    const bool pendingOut = sendStart_ < sendBuf_.size();
    pollfd pfd{sock_.fd(),
                static_cast<short>(POLLIN | (pendingOut ? POLLOUT : 0)), 0};
    timespec ts{static_cast<time_t>(waitNs / 1000000000),
                static_cast<long>(waitNs % 1000000000)};
    int rc = ::ppoll(&pfd, 1, &ts, nullptr);
    if (rc < 0)
        return errno == EINTR;
    if (rc == 0)
        return true;
    if ((pfd.revents & POLLOUT) && !flush())
        return false;
    if (pfd.revents & (POLLIN | POLLHUP | POLLERR))
        return readSome() && drainFrames(out);
    return true;
}

// ---- EngineTransport -------------------------------------------------

EngineTransport::EngineTransport(serve::ProfileCache &cache,
                                 serve::EngineConfig cfg)
{
    engine_ = std::make_unique<serve::QueryEngine>(
        cache, cfg, nullptr, [this](const serve::Response &resp) {
            WireResponse w;
            w.id = resp.id;
            w.status = resp.status == serve::ResponseStatus::Ok
                           ? WireStatus::Ok
                           : WireStatus::NotFound;
            w.weak = resp.weak;
            w.bin = resp.bin;
            w.interval = resp.interval;
            deliver(w);
        });
}

EngineTransport::~EngineTransport()
{
    engine_->drain();
}

void
EngineTransport::deliver(const WireResponse &r)
{
    uint64_t submitted = 0;
    {
        std::lock_guard<std::mutex> lock(mtx_);
        ready_.push_back(r);
        auto it = submittedNs_.find(r.id);
        if (it != submittedNs_.end()) {
            submitted = it->second;
            submittedNs_.erase(it);
        }
    }
    cv_.notify_one();
    if (submitted)
        Ledger::global().record("engine.request", submitted, nowNs(), 0,
                                r.id + 1);
}

bool
EngineTransport::send(std::vector<serve::Request> &batch)
{
    if (Ledger::global().on()) {
        const uint64_t now = nowNs();
        std::lock_guard<std::mutex> lock(mtx_);
        for (const serve::Request &req : batch)
            if (req.id % kTraceEvery == 0)
                submittedNs_[req.id] = now;
    }
    size_t taken = engine_->trySubmitBatch(batch, 0);
    for (size_t k = taken; k < batch.size(); ++k) {
        WireResponse w;
        w.id = batch[k].id;
        w.status = WireStatus::Rejected;
        deliver(w);
    }
    return true;
}

bool
EngineTransport::poll(std::vector<WireResponse> &out, uint64_t waitNs)
{
    std::unique_lock<std::mutex> lock(mtx_);
    cv_.wait_for(lock, std::chrono::nanoseconds(waitNs),
                 [&] { return !ready_.empty(); });
    out.insert(out.end(), ready_.begin(), ready_.end());
    ready_.clear();
    return true;
}

} // namespace perfbench
