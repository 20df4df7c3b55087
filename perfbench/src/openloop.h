/**
 * @file
 * Open-loop load generator.
 *
 * net::runLoadgen is a closed loop: a slow daemon receives less load,
 * so its latency hides queueing. This generator sends on a fixed
 * schedule regardless of answers — request i is due at t0 + i / rate — and
 * times every request from its *due* time to its answer, so a stall
 * raises the latency of every request queued behind it (the wrk2
 * correction for coordinated omission). How late the sender itself ran
 * is reported separately as the send lag.
 *
 * The generator is one thread: it sends whatever is due, then waits for
 * answers until the next request is due, so the load side adds a
 * single thread to the daemon's. It is transport-agnostic:
 * WireTransport speaks REAPER-NET over one nonblocking TCP connection
 * (net/wire.h framing on a net::Socket), EngineTransport submits
 * straight into serve::QueryEngine, and tests plug in fakes.
 */

#ifndef PERFBENCH_OPENLOOP_H
#define PERFBENCH_OPENLOOP_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "serve/query_engine.h"

namespace perfbench {

using reaper::net::WireResponse;
using reaper::net::WireStatus;

/** One query of a generated stream; its id is its index. Kept small:
 *  a run holds a million of them. */
struct Query
{
    uint32_t key = 0; ///< index into the stream's key table
    uint32_t row = 0;
    uint16_t chip = 0;
    reaper::serve::QueryKind kind = reaper::serve::QueryKind::IsRowWeak;
};

/** What the checks read of one answer. */
struct Answer
{
    float interval = 0;
    uint32_t bin = 0;
    WireStatus status = WireStatus::Ok;
    bool weak = false;
};

/** Where the generator's requests go. Neither call may block for long:
 *  the generator's single thread alternates between them. */
class Transport
{
  public:
    virtual ~Transport() = default;
    /** Send (or queue) one batch; false on a transport error. */
    virtual bool send(std::vector<reaper::serve::Request> &batch) = 0;
    /** Wait up to waitNs and append any answers; false on error. */
    virtual bool poll(std::vector<WireResponse> &out, uint64_t waitNs) = 0;
};

/** While the ledger is on, one request in this many is traced. */
constexpr uint64_t kTraceEvery = 64;

/** The latency a refused or unanswered request counts as. */
constexpr double kInfiniteUs = 1e12;

/** What one run observed. */
struct OpenLoopResult
{
    uint64_t sent = 0;
    uint64_t ok = 0;
    uint64_t notFound = 0;
    uint64_t rejected = 0;
    /** Answers for ids never sent, or a second answer for one id. */
    uint64_t bogus = 0;
    bool transportError = false;
    /** Seconds from the first due time to the last answer. */
    double elapsed = 0;
    /** The schedule: request i was due at t0Ns + i * nsPerReq. */
    uint64_t t0Ns = 0;
    double nsPerReq = 0;
    /** Per request (index = id): due-to-answer latency in µs (-1 =
     *  unanswered) and the answer itself. */
    std::vector<float> latencyUs;
    std::vector<Answer> answers;
    /** Per send: actual send time minus the first request's due time. */
    std::vector<double> lagUs;
    /** Seconds from the first due time to the last send, plus one
     *  request interval: sent / rate when the generator kept up. */
    double sendSeconds = 0;
    /** CPU seconds the generator thread used over the run. */
    double cpuSeconds = 0;

    uint64_t answered() const { return ok + notFound + rejected; }
    uint64_t unanswered() const { return sent - answered(); }
    /** Requests handed to the transport per second of sending. */
    double sendRate() const
    {
        return sendSeconds > 0 ? static_cast<double>(sent) / sendSeconds : 0;
    }
    /** ok + notFound + rejected == sent, and nothing bogus. */
    bool accountingHolds() const
    {
        return !transportError && bogus == 0 && answered() == sent;
    }
    /** Latencies (µs) of answered requests with the given statuses. */
    std::vector<double> latencies(bool includeRejected) const;
    /**
     * Split the sent requests into `windows` runs of consecutive ids
     * and return the median over windows of each window's q-percentile;
     * a Rejected or unanswered request counts as infinitely late.
     */
    double windowedPercentile(double q, int windows) const;
    /**
     * Answered, non-Rejected requests per second: counted per window of
     * answer time over the schedule's length, median window.
     */
    double windowedGoodput(double windowSeconds) const;
};

/**
 * Send `stream` (request i carries id i and keys[stream[i].key]) at
 * `rate` requests per second over `transport` and collect every answer.
 * While the ledger is on, every kTraceEvery-th request records the
 * sender-side spans "loadgen.send" (due to sent) and "loadgen.request"
 * (due to answered), both with req = id + 1.
 */
OpenLoopResult runOpenLoop(double rate, const std::vector<Query> &stream,
                           const std::vector<std::string> &keys,
                           Transport &transport);

/** REAPER-NET over one TCP connection. */
class WireTransport : public Transport
{
  public:
    /** Connect and complete the Hello/HelloAck handshake. */
    static reaper::common::Expected<std::unique_ptr<WireTransport>>
    connect(const std::string &host, uint16_t port);

    bool send(std::vector<reaper::serve::Request> &batch) override;
    bool poll(std::vector<WireResponse> &out, uint64_t waitNs) override;

    uint64_t bytesOut() const { return bytesOut_; }
    uint64_t bytesIn() const { return bytesIn_; }
    uint64_t framesOut() const { return framesOut_; }
    uint64_t framesIn() const { return framesIn_; }

  private:
    WireTransport() = default;
    /** Write what the socket takes now; false on error. */
    bool flush();
    /** Read what is available; false on error or close. */
    bool readSome();
    /** Decode complete frames from inbuf_; false on a bad frame. */
    bool drainFrames(std::vector<WireResponse> &out);

    reaper::net::Socket sock_;
    reaper::net::DecodeLimits limits_;
    std::vector<uint8_t> sendBuf_; ///< encoded, not yet written
    size_t sendStart_ = 0;
    std::vector<uint8_t> inbuf_;
    size_t inStart_ = 0;
    uint64_t bytesOut_ = 0, framesOut_ = 0;
    uint64_t bytesIn_ = 0, framesIn_ = 0;
};

/** Straight into serve::QueryEngine::trySubmitBatch; a rejected
 *  remainder is answered Rejected, as the daemon would. While the ledger
 *  is on, each traced request also records the receiver-side span
 *  "engine.request" (submitted to answered, on the engine worker that
 *  answered it) with the req = id + 1 of its sender-side spans. */
class EngineTransport : public Transport
{
  public:
    EngineTransport(reaper::serve::ProfileCache &cache,
                    reaper::serve::EngineConfig cfg);
    /** Drains the engine before the queue it delivers into goes. */
    ~EngineTransport() override;

    EngineTransport(const EngineTransport &) = delete;
    EngineTransport &operator=(const EngineTransport &) = delete;

    bool send(std::vector<reaper::serve::Request> &batch) override;
    bool poll(std::vector<WireResponse> &out, uint64_t waitNs) override;

  private:
    void deliver(const WireResponse &r);

    std::mutex mtx_;
    std::condition_variable cv_;
    std::deque<WireResponse> ready_; ///< guarded by mtx_
    /** Submit time of each traced request in flight; guarded by mtx_. */
    std::unordered_map<uint64_t, uint64_t> submittedNs_;
    /** Last member: its workers call deliver() until it is drained. */
    std::unique_ptr<reaper::serve::QueryEngine> engine_;
};

} // namespace perfbench

#endif // PERFBENCH_OPENLOOP_H
