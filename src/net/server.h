/**
 * @file
 * The TCP serving daemon: a poll-based event loop in front of the
 * in-process serve::QueryEngine.
 *
 * One acceptor/IO thread owns every socket: it accepts connections,
 * reads frames into per-connection buffers, decodes QueryBatch frames
 * (under the hostile-input clamps of net/wire.h), and batch-enqueues
 * the decoded requests into the engine's bounded MPMC queue via
 * trySubmitBatch — one lock acquisition per frame, mirroring the
 * engine's own batch dequeue. Nothing in the loop ever blocks:
 *
 *  - **Backpressure is protocol-visible.** Whatever prefix of a batch
 *    the engine's bounded queue cannot take is answered immediately
 *    with status Rejected. Under overload the daemon sheds load one
 *    response at a time; it never blocks the loop, never buffers
 *    unboundedly, and never drops a request without telling the
 *    client.
 *  - **Responses flow back through the engine sink.** Worker threads
 *    deliver each answer into the owning connection's pending list
 *    (id-remapped back to the client's correlation id) and wake the
 *    loop through a self-pipe; the loop coalesces pending answers
 *    into ResponseBatch frames on the next iteration.
 *  - **Flow control per connection.** A connection whose output
 *    buffer exceeds the soft cap stops being read (its requests stay
 *    in the kernel receive buffer and eventually push back on the
 *    client's TCP window) until the client drains responses.
 *
 * Graceful shutdown (stop(), or the process-wide SIGINT/SIGTERM latch
 * below): the listener closes, reading stops, the engine drains every
 * accepted request, the resulting responses are flushed to each
 * connection (bounded by drainFlushTimeoutMs), and only then do the
 * sockets close. Accepted requests are never dropped by shutdown.
 */

#ifndef REAPER_NET_SERVER_H
#define REAPER_NET_SERVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "serve/metrics.h"
#include "serve/profile_cache.h"
#include "serve/query_engine.h"

namespace reaper {
namespace net {

/** Daemon shape. */
struct ServerConfig
{
    std::string host = "127.0.0.1";
    /** 0 = ephemeral; read the bound port back via Server::port(). */
    uint16_t port = 0;
    int backlog = 128;
    size_t maxConnections = 256;
    /** Decoder clamps for untrusted client frames. */
    DecodeLimits limits;
    /** Stop reading a connection whose unsent output exceeds this. */
    size_t outbufSoftCapBytes = 4u << 20;
    /** Shutdown: max time to flush drained responses to sockets. */
    int drainFlushTimeoutMs = 5000;
    /** Profile keys advertised to ListKeys clients. */
    std::vector<std::string> keys;
};

/** Monotonic daemon counters (relaxed snapshot). */
struct ServerStats
{
    uint64_t connectionsAccepted = 0;
    uint64_t connectionsClosed = 0;
    uint64_t framesIn = 0;
    uint64_t framesOut = 0;
    uint64_t bytesIn = 0;
    uint64_t bytesOut = 0;
    uint64_t requests = 0;      ///< decoded from QueryBatch frames
    uint64_t responsesOk = 0;
    uint64_t responsesNotFound = 0;
    uint64_t responsesRejected = 0; ///< backpressure sheds + reads
                                    ///< to retry (RetryLater)
    uint64_t responsesOrphaned = 0; ///< connection gone before answer
    uint64_t protocolErrors = 0;    ///< bad frames from clients
};

/**
 * TCP daemon over a ProfileCache. Owns its QueryEngine (constructed
 * in start() so the engine sink can target the server) and one IO
 * thread. The cache — and the store beneath it — must outlive the
 * server.
 */
class Server
{
  public:
    Server(serve::ProfileCache &cache, serve::EngineConfig engineCfg,
           ServerConfig cfg, serve::Metrics *metrics = nullptr);
    /** stop() + join(). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, start the engine and the IO thread. */
    common::Status start();

    /** The bound port (valid after start()). */
    uint16_t port() const { return port_; }

    /** Request graceful shutdown (thread-safe, idempotent, returns
     *  immediately — join() waits for the drain to finish). */
    void stop();

    /** Wait for the IO thread to finish the shutdown sequence. */
    void join();

    ServerStats stats() const;

    /** Requests the engine has answered (incl. NotFound; excludes
     *  Rejected, which never enter the engine). */
    uint64_t completed() const;

    const ServerConfig &config() const { return cfg_; }

  private:
    struct Conn
    {
        uint64_t id = 0;
        Socket sock;
        std::vector<uint8_t> inbuf;
        size_t inStart = 0;
        std::vector<uint8_t> outbuf;
        size_t outStart = 0;
        /** Engine answers awaiting encode (guarded by mu_). */
        std::vector<WireResponse> pending;
        bool readPaused = false;
        /** Flush outbuf, then close (protocol error path). */
        bool closing = false;
    };

    /** Where a submitted request came from (guarded by mu_). */
    struct Origin
    {
        uint64_t connId = 0;
        uint64_t clientId = 0;
    };

    void ioLoop();
    void acceptReady();
    /** Read + decode + submit; false when the conn must close now. */
    bool readReady(Conn &conn);
    bool handleFrame(Conn &conn, const FrameView &frame);
    void submitQueries(Conn &conn, const FrameView &frame);
    /** Engine sink: runs on worker threads. */
    void onEngineResponse(const serve::Response &resp);
    /** Move pending answers into outbufs as ResponseBatch frames. */
    void flushPending();
    /** Nonblocking write of conn.outbuf; false when the conn died. */
    bool writeReady(Conn &conn);
    void closeConn(uint64_t connId);
    void protocolError(Conn &conn, const std::string &message);
    void shutdownSequence();

    serve::ProfileCache &cache_;
    serve::EngineConfig engineCfg_;
    ServerConfig cfg_;
    serve::Metrics *metrics_;
    std::unique_ptr<serve::QueryEngine> engine_;

    Socket listener_;
    Socket wakeRead_, wakeWrite_;
    uint16_t port_ = 0;
    std::thread io_;
    std::atomic<bool> stopRequested_{false};
    bool started_ = false;

    /** Guards conns_ membership, Conn::pending, closing, and idMap_.
     *  Socket buffers are IO-thread-only. */
    mutable std::mutex mu_;
    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
    std::unordered_map<uint64_t, Origin> idMap_;
    uint64_t nextConnId_ = 1;
    uint64_t nextInternalId_ = 1;

    // Stats (relaxed atomics; snapshot via stats()).
    std::atomic<uint64_t> connectionsAccepted_{0};
    std::atomic<uint64_t> connectionsClosed_{0};
    std::atomic<uint64_t> framesIn_{0};
    std::atomic<uint64_t> framesOut_{0};
    std::atomic<uint64_t> bytesIn_{0};
    std::atomic<uint64_t> bytesOut_{0};
    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> responsesOk_{0};
    std::atomic<uint64_t> responsesNotFound_{0};
    std::atomic<uint64_t> responsesRejected_{0};
    std::atomic<uint64_t> responsesOrphaned_{0};
    std::atomic<uint64_t> protocolErrors_{0};

    /** Scratch for decoded batches (IO thread only). */
    std::vector<serve::Request> decodeScratch_;
    std::vector<serve::Request> submitScratch_;
    /** Client correlation ids parallel to submitScratch_. */
    std::vector<uint64_t> clientIds_;
};

// ---- Process-wide shutdown latch ------------------------------------
//
// SIGINT/SIGTERM cannot safely call into Server, so the handlers set
// an async-signal-safe latch (atomic flag + self-pipe write) that the
// daemon's main thread waits on before calling Server::stop(). The
// programmatic requestShutdown() is the same latch without the signal,
// so tests exercise the identical wakeup path.

/** Route SIGINT and SIGTERM to the latch. */
void installShutdownHandlers();

/** Whether the latch has fired (signal or requestShutdown()). */
bool shutdownRequested();

/** Fire the latch programmatically. */
void requestShutdown();

/** Block until the latch fires. */
void waitForShutdown();

/** Re-arm the latch (tests only; not signal-safe). */
void resetShutdownLatch();

} // namespace net
} // namespace reaper

#endif // REAPER_NET_SERVER_H
