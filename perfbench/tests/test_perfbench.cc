/**
 * @file
 * Unit tests of the benchmark's own code: order statistics, the
 * open-loop schedule and its failure accounting. Run by
 * `python3 perfbench/run.py --self-test`.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "ledger.h"
#include "openloop.h"
#include "stats.h"

using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                          \
    do {                                                                     \
        if (!(cond)) {                                                       \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                         __LINE__, #cond);                                   \
            ++g_failures;                                                    \
        }                                                                    \
    } while (0)

bool
near(double a, double b, double tol = 1e-9)
{
    return std::fabs(a - b) <= tol;
}

void
testOrderStatistics()
{
    std::vector<double> v = {5, 1, 4, 2, 3};
    CHECK(near(median(v), 3));
    CHECK(near(median({4, 1, 3, 2}), 2.5));
    CHECK(near(percentile(v, 0.5), 3));
    CHECK(near(percentile(v, 0.2), 1));
    CHECK(near(percentile(v, 0.21), 2));
    CHECK(near(percentile(v, 1.0), 5));
    CHECK(near(percentile({}, 0.5), 0));

    // The reported tail is the highest percentile with >= 10 samples
    // beyond it.
    CHECK(near(tailQuantile(19), 0.0));
    CHECK(near(tailQuantile(20), 0.5));
    CHECK(near(tailQuantile(100), 0.9));
    CHECK(near(tailQuantile(999), 0.9));
    CHECK(near(tailQuantile(1000), 0.99));
    CHECK(near(tailQuantile(1000000), 0.99));

    std::vector<double> lat;
    for (int i = 1; i <= 1000; ++i)
        lat.push_back(i);
    LatencySummary s = summarize(lat);
    CHECK(s.n == 1000);
    CHECK(near(s.p50, 500));
    CHECK(near(s.tailQ, 0.99));
    CHECK(near(s.tail, 990));
}

/** Answers every request after a fixed service time; optionally
 *  stalls once for `stallMs` before answering request `stallAt`, or
 *  misbehaves in the ways the accounting must catch. */
class FakeTransport : public Transport
{
  public:
    std::chrono::microseconds service{20};
    uint64_t stallAt = ~0ull;
    int stallMs = 0;
    uint64_t rejectFrom = ~0ull;  ///< answer Rejected from this id on
    uint64_t dropId = ~0ull;      ///< never answer this id
    uint64_t duplicateId = ~0ull; ///< answer this id twice

    bool send(std::vector<reaper::serve::Request> &batch) override
    {
        std::lock_guard<std::mutex> lock(mtx_);
        for (const auto &r : batch)
            inflight_.push_back({r.id, now() + service});
        return true;
    }

    bool poll(std::vector<WireResponse> &out, uint64_t waitNs) override
    {
        auto deadline = now() + std::chrono::nanoseconds(waitNs);
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(mtx_);
                while (!inflight_.empty() && inflight_.front().second <= now()) {
                    uint64_t id = inflight_.front().first;
                    inflight_.pop_front();
                    if (id == stallAt && stallMs > 0) {
                        // The receiver stalls: everything behind waits.
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(stallMs));
                    }
                    if (id == dropId)
                        continue;
                    WireResponse w;
                    w.id = id;
                    w.status = id >= rejectFrom ? WireStatus::Rejected
                                                : WireStatus::Ok;
                    out.push_back(w);
                    if (id == duplicateId)
                        out.push_back(w);
                }
            }
            if (!out.empty() || now() >= deadline)
                return true;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    }

  private:
    static std::chrono::steady_clock::time_point now()
    {
        return std::chrono::steady_clock::now();
    }
    std::mutex mtx_;
    std::deque<std::pair<uint64_t, std::chrono::steady_clock::time_point>>
        inflight_;
};

std::vector<Query>
streamOf(size_t n)
{
    return std::vector<Query>(n);
}

const std::vector<std::string> kKeys = {"k"};

void
testScheduleAndStall()
{
    const double rate = 2000; // one request every 500 µs, 0.5 s in all
    const size_t n = 1000;
    FakeTransport calm;
    OpenLoopResult a = runOpenLoop(rate, streamOf(n), kKeys, calm);
    CHECK(a.accountingHolds());
    CHECK(a.sent == n && a.ok == n);
    // Sent on schedule: the run lasts about n / rate.
    CHECK(a.elapsed > 0.45 && a.elapsed < 1.0);
    CHECK(a.sendRate() > 0.95 * rate && a.sendRate() < 1.05 * rate);
    double calmP50 = percentile(a.latencies(true), 0.5);
    CHECK(calmP50 < 5000);

    // A 100 ms receiver stall at request 500 delays the ~200 requests
    // due during the stall: an open loop charges them the wait from
    // their due time, so they all read >= tens of ms.
    FakeTransport stalled;
    stalled.stallAt = 500;
    stalled.stallMs = 100;
    OpenLoopResult b = runOpenLoop(rate, streamOf(n), kKeys, stalled);
    CHECK(b.accountingHolds());
    CHECK(b.latencyUs[500] >= 100000 * 0.9);
    size_t delayed = 0;
    for (size_t i = 500; i < 700; ++i)
        delayed += b.latencyUs[i] > 20000 ? 1 : 0;
    CHECK(delayed >= 150);
    // Latency falls again once the backlog drains.
    CHECK(b.latencyUs[n - 1] < 20000);
    // Requests before the stall are unaffected.
    CHECK(b.latencyUs[100] < 20000);
    // The stall owns the overall p99 but only two of eight windows.
    CHECK(percentile(b.latencies(true), 0.99) > 50000);
    CHECK(b.windowedPercentile(0.99, 8) < 20000);
}

void
testFailureAccounting()
{
    const double rate = 5000;
    const size_t n = 500;

    FakeTransport rejecting;
    rejecting.rejectFrom = 400;
    OpenLoopResult r = runOpenLoop(rate, streamOf(n), kKeys, rejecting);
    CHECK(r.accountingHolds()); // Rejected still answers the request
    CHECK(r.ok == 400 && r.rejected == 100);
    CHECK(r.latencies(false).size() == 400);
    CHECK(r.latencies(true).size() == 500);

    FakeTransport dropping;
    dropping.dropId = 123;
    OpenLoopResult d = runOpenLoop(rate, streamOf(n), kKeys, dropping);
    CHECK(!d.accountingHolds());
    CHECK(d.unanswered() == 1);
    CHECK(d.latencyUs[123] < 0);
    // An unanswered request counts as infinitely late.
    CHECK(d.windowedPercentile(1.0, 1) == kInfiniteUs);

    FakeTransport duplicating;
    duplicating.duplicateId = 7;
    OpenLoopResult u = runOpenLoop(rate, streamOf(n), kKeys, duplicating);
    CHECK(u.bogus == 1);
    CHECK(!u.accountingHolds());
    CHECK(u.answered() == n);
}

void
testLedgerSelfTime()
{
    Ledger &l = Ledger::global();
    l.clear();
    l.enable(true);
    {
        Scope outer("outer");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        {
            Scope inner("inner", 42);
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }
    l.enable(false);
    auto t = l.totals();
    CHECK(t["outer"].count == 1 && t["inner"].count == 1);
    CHECK(t["inner"].selfNs == t["inner"].totalNs);
    CHECK(t["outer"].selfNs + t["inner"].totalNs == t["outer"].totalNs);
    CHECK(t["outer"].selfNs >= 4000000 && t["outer"].selfNs < 9000000);
    auto spans = l.collect();
    CHECK(spans.size() == 2);
    for (const SpanRecord &s : spans)
        if (std::string(s.name) == "inner")
            CHECK(s.parent != 0 && s.req == 42);
    l.clear();
}

} // namespace

int
main()
{
    testOrderStatistics();
    testScheduleAndStall();
    testFailureAccounting();
    testLedgerSelfTime();
    if (g_failures) {
        std::fprintf(stderr, "%d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("perfbench self-test: all checks passed\n");
    return 0;
}
