#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <mutex>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/obs.h"

namespace reaper {
namespace net {

namespace {

using common::Error;
using common::Status;
using common::okStatus;

constexpr size_t kReadChunkBytes = 64 * 1024;
/** Compact a buffer once its consumed prefix crosses this. */
constexpr size_t kCompactThresholdBytes = 64 * 1024;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Server::Server(serve::ProfileCache &cache,
               serve::EngineConfig engineCfg, ServerConfig cfg,
               serve::Metrics *metrics)
    : cache_(cache), engineCfg_(engineCfg), cfg_(std::move(cfg)),
      metrics_(metrics)
{
}

Server::~Server()
{
    stop();
    join();
}

Status
Server::start()
{
    if (started_)
        return Error::invalidConfig("net: server already started");
    auto listener =
        Socket::listenTcp(cfg_.host, cfg_.port, cfg_.backlog);
    if (!listener)
        return listener.error();
    listener_ = std::move(listener.value());
    if (Status s = listener_.setNonBlocking(true); !s)
        return s;
    auto port = listener_.localPort();
    if (!port)
        return port.error();
    port_ = port.value();
    auto wake = makeWakePipe();
    if (!wake)
        return wake.error();
    wakeRead_ = std::move(wake.value().first);
    wakeWrite_ = std::move(wake.value().second);
    engine_ = std::make_unique<serve::QueryEngine>(
        cache_, engineCfg_, metrics_,
        [this](const serve::Response &resp) {
            onEngineResponse(resp);
        });
    started_ = true;
    io_ = std::thread([this] { ioLoop(); });
    return okStatus();
}

void
Server::stop()
{
    if (!started_)
        return;
    if (!stopRequested_.exchange(true)) {
        const uint8_t byte = 0;
        [[maybe_unused]] ssize_t n =
            ::write(wakeWrite_.fd(), &byte, 1);
    }
}

void
Server::join()
{
    if (io_.joinable())
        io_.join();
}

ServerStats
Server::stats() const
{
    ServerStats s;
    s.connectionsAccepted = connectionsAccepted_.load();
    s.connectionsClosed = connectionsClosed_.load();
    s.framesIn = framesIn_.load();
    s.framesOut = framesOut_.load();
    s.bytesIn = bytesIn_.load();
    s.bytesOut = bytesOut_.load();
    s.requests = requests_.load();
    s.responsesOk = responsesOk_.load();
    s.responsesNotFound = responsesNotFound_.load();
    s.responsesRejected = responsesRejected_.load();
    s.responsesOrphaned = responsesOrphaned_.load();
    s.protocolErrors = protocolErrors_.load();
    return s;
}

uint64_t
Server::completed() const
{
    return engine_ ? engine_->completed() : 0;
}

void
Server::ioLoop()
{
    std::vector<pollfd> fds;
    std::vector<Conn *> polled;
    std::vector<uint64_t> toClose;
    while (!stopRequested_.load(std::memory_order_relaxed)) {
        flushPending();

        fds.clear();
        polled.clear();
        fds.push_back({wakeRead_.fd(), POLLIN, 0});
        size_t connCount;
        {
            std::lock_guard<std::mutex> lock(mu_);
            connCount = conns_.size();
        }
        const bool acceptSlot = connCount < cfg_.maxConnections;
        fds.push_back({acceptSlot ? listener_.fd() : -1, POLLIN, 0});
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (auto &entry : conns_) {
                Conn &conn = *entry.second;
                const size_t queued =
                    conn.outbuf.size() - conn.outStart;
                conn.readPaused = queued > cfg_.outbufSoftCapBytes;
                short events = 0;
                if (!conn.closing && !conn.readPaused)
                    events |= POLLIN;
                if (queued > 0)
                    events |= POLLOUT;
                fds.push_back({conn.sock.fd(), events, 0});
                polled.push_back(&conn);
            }
        }

        int ready = ::poll(fds.data(),
                           static_cast<nfds_t>(fds.size()), 100);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break; // unrecoverable poll failure: shut down
        }

        if (fds[0].revents & POLLIN) {
            uint8_t drainBuf[256];
            while (::read(wakeRead_.fd(), drainBuf,
                          sizeof(drainBuf)) > 0) {
            }
        }
        if (acceptSlot && (fds[1].revents & POLLIN))
            acceptReady();

        toClose.clear();
        for (size_t i = 0; i < polled.size(); ++i) {
            Conn &conn = *polled[i];
            const short revents = fds[i + 2].revents;
            if (revents == 0)
                continue;
            bool alive = true;
            if (revents & (POLLERR | POLLNVAL))
                alive = false;
            if (alive && (revents & (POLLIN | POLLHUP)))
                alive = readReady(conn);
            if (alive && (revents & POLLOUT))
                alive = writeReady(conn);
            if (alive && conn.closing &&
                conn.outStart == conn.outbuf.size())
                alive = false; // error frame flushed: done
            if (!alive)
                toClose.push_back(conn.id);
        }
        for (uint64_t id : toClose)
            closeConn(id);
    }
    shutdownSequence();
}

void
Server::acceptReady()
{
    for (;;) {
        int fd = ::accept(listener_.fd(), nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN or transient failure: retry next wake
        }
        Socket sock(fd);
        if (!sock.setNonBlocking(true) || !sock.setNoDelay(true))
            continue; // drop the connection, keep accepting
        auto conn = std::make_unique<Conn>();
        conn->sock = std::move(sock);
        connectionsAccepted_.fetch_add(1, std::memory_order_relaxed);
        REAPER_OBS_COUNT("net.connections_accepted");
        {
            std::lock_guard<std::mutex> lock(mu_);
            conn->id = nextConnId_++;
            conns_.emplace(conn->id, std::move(conn));
            if (conns_.size() >= cfg_.maxConnections)
                return;
        }
    }
}

bool
Server::readReady(Conn &conn)
{
    // Read everything available (bounded per wakeup so one firehose
    // connection cannot starve the rest), then decode frame-by-frame.
    size_t budget = 4 * kReadChunkBytes;
    bool sawEof = false;
    while (budget > 0) {
        const size_t old = conn.inbuf.size();
        conn.inbuf.resize(old + kReadChunkBytes);
        ssize_t n = ::recv(conn.sock.fd(), conn.inbuf.data() + old,
                           kReadChunkBytes, 0);
        if (n < 0) {
            conn.inbuf.resize(old);
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            return false;
        }
        if (n == 0) {
            conn.inbuf.resize(old);
            sawEof = true;
            break;
        }
        conn.inbuf.resize(old + static_cast<size_t>(n));
        bytesIn_.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
        budget -= std::min(budget, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < kReadChunkBytes)
            break;
    }

    while (!conn.closing) {
        FrameView frame;
        auto consumed = tryExtractFrame(
            conn.inbuf.data() + conn.inStart,
            conn.inbuf.size() - conn.inStart, cfg_.limits, &frame);
        if (!consumed) {
            protocolError(conn, consumed.error().describe());
            break;
        }
        if (consumed.value() == 0)
            break;
        framesIn_.fetch_add(1, std::memory_order_relaxed);
        REAPER_OBS_COUNT("net.frames_in");
        conn.inStart += consumed.value();
        if (!handleFrame(conn, frame))
            break;
    }
    if (conn.inStart == conn.inbuf.size()) {
        conn.inbuf.clear();
        conn.inStart = 0;
    } else if (conn.inStart > kCompactThresholdBytes) {
        conn.inbuf.erase(conn.inbuf.begin(),
                         conn.inbuf.begin() +
                             static_cast<ptrdiff_t>(conn.inStart));
        conn.inStart = 0;
    }
    // A peer that half-closed after sending requests still gets its
    // in-flight answers only if it keeps the read side open; a full
    // EOF means nobody is listening — close (in-flight answers are
    // counted orphaned by the sink).
    return !sawEof;
}

bool
Server::handleFrame(Conn &conn, const FrameView &frame)
{
    switch (frame.opcode) {
    case Opcode::Hello: {
        auto magic = decodeHello(frame);
        if (!magic || magic.value() != kHelloMagic) {
            protocolError(conn, !magic ? magic.error().describe()
                                       : "net: Hello magic mismatch");
            return false;
        }
        ServerLimits limits;
        limits.maxFrameBytes = cfg_.limits.maxFrameBytes;
        limits.maxBatchPerFrame = cfg_.limits.maxBatchPerFrame;
        limits.workers = engineCfg_.workers;
        encodeHelloAck(conn.outbuf, limits);
        framesOut_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    case Opcode::ListKeys:
        encodeKeyList(conn.outbuf, cfg_.keys);
        framesOut_.fetch_add(1, std::memory_order_relaxed);
        return true;
    case Opcode::QueryBatch:
        submitQueries(conn, frame);
        return !conn.closing;
    case Opcode::HelloAck:
    case Opcode::KeyList:
    case Opcode::ResponseBatch:
    case Opcode::ProtocolError:
        protocolError(conn,
                      std::string("net: unexpected ") +
                          toString(frame.opcode) +
                          " frame from a client");
        return false;
    }
    return false;
}

void
Server::submitQueries(Conn &conn, const FrameView &frame)
{
    decodeScratch_.clear();
    Status decoded =
        decodeQueryBatch(frame, cfg_.limits, decodeScratch_);
    if (!decoded) {
        protocolError(conn, decoded.error().describe());
        return;
    }
    const size_t n = decodeScratch_.size();
    if (n == 0)
        return;
    requests_.fetch_add(n, std::memory_order_relaxed);
    REAPER_OBS_COUNT_N("net.requests", n);

    // Remap client correlation ids to process-unique internal ids and
    // register the origin of each before submission — a worker may
    // answer the instant the queue holds the request.
    submitScratch_.clear();
    submitScratch_.reserve(n);
    clientIds_.clear();
    clientIds_.reserve(n);
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (serve::Request &req : decodeScratch_) {
            const uint64_t internal = nextInternalId_++;
            idMap_.emplace(internal, Origin{conn.id, req.id});
            clientIds_.push_back(req.id);
            req.id = internal;
            submitScratch_.push_back(std::move(req));
        }
    }

    // One non-blocking submission attempt: the engine takes the
    // prefix its bounded queue can hold, the rest are answered
    // Rejected right now. The IO loop never waits on the engine.
    const size_t taken = engine_->trySubmitBatch(submitScratch_, 0);
    if (taken < n) {
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t i = taken; i < n; ++i) {
            idMap_.erase(submitScratch_[i].id);
            WireResponse resp;
            resp.id = clientIds_[i];
            resp.status = WireStatus::Rejected;
            conn.pending.push_back(resp);
        }
        responsesRejected_.fetch_add(n - taken,
                                     std::memory_order_relaxed);
        REAPER_OBS_COUNT_N("net.responses_rejected", n - taken);
    }
}

void
Server::onEngineResponse(const serve::Response &resp)
{
    bool wake = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = idMap_.find(resp.id);
        if (it == idMap_.end()) {
            responsesOrphaned_.fetch_add(1,
                                         std::memory_order_relaxed);
            return;
        }
        const Origin origin = it->second;
        idMap_.erase(it);
        auto cit = conns_.find(origin.connId);
        if (cit == conns_.end() || cit->second->closing) {
            responsesOrphaned_.fetch_add(1,
                                         std::memory_order_relaxed);
            return;
        }
        Conn &conn = *cit->second;
        WireResponse wireResp;
        wireResp.id = origin.clientId;
        switch (resp.status) {
        case serve::ResponseStatus::Ok:
            wireResp.status = WireStatus::Ok;
            responsesOk_.fetch_add(1, std::memory_order_relaxed);
            break;
        case serve::ResponseStatus::UnknownProfile:
            wireResp.status = WireStatus::NotFound;
            responsesNotFound_.fetch_add(1,
                                         std::memory_order_relaxed);
            break;
        case serve::ResponseStatus::RetryLater:
            // A profile that could not be read is not absent: the
            // client may retry, exactly as after backpressure.
            wireResp.status = WireStatus::Rejected;
            responsesRejected_.fetch_add(1,
                                         std::memory_order_relaxed);
            break;
        }
        wireResp.weak = resp.weak;
        wireResp.bin = resp.bin;
        wireResp.interval = resp.interval;
        wake = conn.pending.empty();
        conn.pending.push_back(wireResp);
    }
    if (wake) {
        const uint8_t byte = 0;
        [[maybe_unused]] ssize_t n =
            ::write(wakeWrite_.fd(), &byte, 1);
    }
}

void
Server::flushPending()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &entry : conns_) {
        Conn &conn = *entry.second;
        if (conn.pending.empty())
            continue;
        const size_t chunk = cfg_.limits.maxBatchPerFrame;
        for (size_t off = 0; off < conn.pending.size();
             off += chunk) {
            const size_t count =
                std::min(chunk, conn.pending.size() - off);
            encodeResponseBatch(conn.outbuf,
                                conn.pending.data() + off, count);
            framesOut_.fetch_add(1, std::memory_order_relaxed);
        }
        conn.pending.clear();
    }
}

bool
Server::writeReady(Conn &conn)
{
    while (conn.outStart < conn.outbuf.size()) {
        ssize_t n = ::send(conn.sock.fd(),
                           conn.outbuf.data() + conn.outStart,
                           conn.outbuf.size() - conn.outStart,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            return false;
        }
        conn.outStart += static_cast<size_t>(n);
        bytesOut_.fetch_add(static_cast<uint64_t>(n),
                            std::memory_order_relaxed);
    }
    if (conn.outStart == conn.outbuf.size()) {
        conn.outbuf.clear();
        conn.outStart = 0;
    } else if (conn.outStart > kCompactThresholdBytes) {
        conn.outbuf.erase(conn.outbuf.begin(),
                          conn.outbuf.begin() +
                              static_cast<ptrdiff_t>(conn.outStart));
        conn.outStart = 0;
    }
    return true;
}

void
Server::closeConn(uint64_t connId)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(connId);
    if (it == conns_.end())
        return;
    conns_.erase(it); // Socket destructor closes the fd
    connectionsClosed_.fetch_add(1, std::memory_order_relaxed);
    REAPER_OBS_COUNT("net.connections_closed");
}

void
Server::protocolError(Conn &conn, const std::string &message)
{
    protocolErrors_.fetch_add(1, std::memory_order_relaxed);
    REAPER_OBS_COUNT("net.protocol_errors");
    std::lock_guard<std::mutex> lock(mu_);
    if (conn.closing)
        return;
    // Flush any answers queued before the violation, then the
    // terminal diagnostic; the conn closes once the outbuf drains.
    if (!conn.pending.empty()) {
        encodeResponseBatch(conn.outbuf, conn.pending.data(),
                            conn.pending.size());
        framesOut_.fetch_add(1, std::memory_order_relaxed);
        conn.pending.clear();
    }
    encodeProtocolError(conn.outbuf, message);
    framesOut_.fetch_add(1, std::memory_order_relaxed);
    conn.closing = true;
}

void
Server::shutdownSequence()
{
    // 1. Acceptor stop: no new connections, no new reads.
    listener_.close();
    // 2. Drain: every accepted request is answered; the sinks park
    //    the answers in per-connection pending lists.
    engine_->drain();
    // 3. Flush: encode the drained answers and push them out, bounded
    //    by the configured timeout.
    flushPending();
    const double deadline =
        nowSeconds() + cfg_.drainFlushTimeoutMs / 1000.0;
    std::vector<pollfd> fds;
    std::vector<Conn *> polled;
    std::vector<uint64_t> toClose;
    for (;;) {
        fds.clear();
        polled.clear();
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (auto &entry : conns_) {
                Conn &conn = *entry.second;
                if (conn.outStart == conn.outbuf.size())
                    continue;
                fds.push_back({conn.sock.fd(), POLLOUT, 0});
                polled.push_back(&conn);
            }
        }
        if (fds.empty())
            break;
        const double remaining = deadline - nowSeconds();
        if (remaining <= 0)
            break;
        int timeout = static_cast<int>(
            std::min(remaining * 1000.0, 100.0));
        int ready = ::poll(fds.data(),
                           static_cast<nfds_t>(fds.size()),
                           std::max(timeout, 1));
        if (ready < 0 && errno != EINTR)
            break;
        toClose.clear();
        for (size_t i = 0; i < polled.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            if ((fds[i].revents & (POLLERR | POLLNVAL | POLLHUP)) ||
                !writeReady(*polled[i]))
                toClose.push_back(polled[i]->id);
        }
        for (uint64_t id : toClose)
            closeConn(id);
    }
    // 4. Close everything that remains.
    std::lock_guard<std::mutex> lock(mu_);
    connectionsClosed_.fetch_add(conns_.size(),
                                 std::memory_order_relaxed);
    conns_.clear();
}

// ---- Process-wide shutdown latch ------------------------------------

namespace {

std::atomic<bool> g_shutdownRequested{false};
int g_shutdownPipe[2] = {-1, -1};
std::once_flag g_shutdownPipeOnce;

void
ensureShutdownPipe()
{
    std::call_once(g_shutdownPipeOnce, [] {
        if (::pipe(g_shutdownPipe) == 0) {
            // Nonblocking write end: a signal storm must never block
            // inside the handler.
            int flags = ::fcntl(g_shutdownPipe[1], F_GETFL, 0);
            ::fcntl(g_shutdownPipe[1], F_SETFL, flags | O_NONBLOCK);
        }
    });
}

extern "C" void
reaperNetShutdownHandler(int)
{
    // Async-signal-safe: one lock-free store and one write(2).
    g_shutdownRequested.store(true, std::memory_order_relaxed);
    if (g_shutdownPipe[1] >= 0) {
        const uint8_t byte = 0;
        [[maybe_unused]] ssize_t n =
            ::write(g_shutdownPipe[1], &byte, 1);
    }
}

} // namespace

void
installShutdownHandlers()
{
    ensureShutdownPipe();
    struct sigaction sa{};
    sa.sa_handler = reaperNetShutdownHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

bool
shutdownRequested()
{
    return g_shutdownRequested.load(std::memory_order_relaxed);
}

void
requestShutdown()
{
    ensureShutdownPipe();
    g_shutdownRequested.store(true, std::memory_order_relaxed);
    if (g_shutdownPipe[1] >= 0) {
        const uint8_t byte = 0;
        [[maybe_unused]] ssize_t n =
            ::write(g_shutdownPipe[1], &byte, 1);
    }
}

void
waitForShutdown()
{
    ensureShutdownPipe();
    while (!shutdownRequested()) {
        pollfd pfd{g_shutdownPipe[0], POLLIN, 0};
        ::poll(&pfd, 1, 200);
    }
}

void
resetShutdownLatch()
{
    ensureShutdownPipe();
    g_shutdownRequested.store(false, std::memory_order_relaxed);
    uint8_t drainBuf[64];
    int flags = ::fcntl(g_shutdownPipe[0], F_GETFL, 0);
    ::fcntl(g_shutdownPipe[0], F_SETFL, flags | O_NONBLOCK);
    while (::read(g_shutdownPipe[0], drainBuf, sizeof(drainBuf)) > 0) {
    }
    ::fcntl(g_shutdownPipe[0], F_SETFL, flags);
}

} // namespace net
} // namespace reaper
