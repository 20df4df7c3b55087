/**
 * @file
 * The benchmark's span ledger: spans recorded from the benchmark's own
 * code around calls into the library's public API.
 *
 * obs::Tracer keeps 16K events per thread and records no parent or
 * request links, so the traced run keeps its own records: every span
 * has a name, start, end, a parent span (the enclosing Scope on the
 * same thread, or 0) and a request id shared by the sender-side and
 * receiver-side spans of one request. Spans stay in memory (one buffer
 * per thread, no shared state on the hot path) and are written once,
 * after every recording thread has been joined.
 */

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
uint64_t nowNs();

/** One recorded span. */
struct SpanRecord
{
    const char *name = nullptr; ///< string literal; not owned
    uint64_t id = 0;            ///< unique, > 0
    uint64_t parent = 0;        ///< enclosing span id, 0 = root
    uint64_t req = 0;           ///< request id + 1, 0 = none
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint32_t tid = 0;
};

/** Per-name aggregate over the recorded spans. */
struct LayerTotals
{
    uint64_t count = 0;
    uint64_t totalNs = 0; ///< sum of span durations
    uint64_t selfNs = 0;  ///< sum of (duration - children's durations)
    std::vector<double> durNs;  ///< per span
    std::vector<double> selfEachNs; ///< per span
};

class Ledger
{
  public:
    /** The process-wide ledger (off until enable()). */
    static Ledger &global();

    void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
    bool on() const { return on_.load(std::memory_order_relaxed); }

    /** Record a finished span (nothing when off). */
    void record(const char *name, uint64_t startNs, uint64_t endNs,
                uint64_t parent, uint64_t req);

    /** Every span, all threads (call after recording threads joined). */
    std::vector<SpanRecord> collect() const;

    /** Per-name totals with self time (children by parent link). */
    std::map<std::string, LayerTotals> totals() const;

    /** Write every span as JSON lines; false on I/O failure. */
    bool writeJsonl(const std::string &path) const;

    /** Drop all spans (between the phases of one run). */
    void clear();

  private:
    friend class Scope;
    struct Buffer
    {
        uint32_t tid = 0;
        std::vector<SpanRecord> spans;
        std::vector<uint64_t> open; ///< stack of open Scope ids
    };
    Buffer &buffer();
    static uint64_t nextId();
    void append(uint64_t id, const char *name, uint64_t startNs,
                uint64_t endNs, uint64_t parent, uint64_t req);

    std::atomic<bool> on_{false};
    mutable std::mutex mtx_; ///< guards buffers_ registration
    std::vector<std::shared_ptr<Buffer>> buffers_;
};

/**
 * RAII span around one call. Nested Scopes on a thread become the
 * children of the enclosing one. Free when the ledger is off.
 */
class Scope
{
  public:
    explicit Scope(const char *name, uint64_t req = 0);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    const char *name_;
    uint64_t req_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t startNs_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
