/**
 * @file
 * Workloads `serve_hot` and `serve_churn`: an open loop over loopback
 * REAPER-NET into an in-process net::Server configured like
 * `serve_daemon --listen` (views on, queue capacity 4096) with 2 engine
 * workers. The load comes from one connection driven by one thread.
 *
 * serve_hot: zipf 0.99 over 48 keys that all stay cached (64 MiB
 * cache), 1% unknown keys, half IsRowWeak and half RefreshBin. The net
 * IO loop, the wire codec and the engine queue are the whole cost.
 *
 * serve_churn: the same load generator and daemon with 256 keys at zipf
 * 0.5 and a cache sized to a quarter of the measured working set, so
 * every shard still holds several entries but most lookups miss. One writer
 * thread commits VRT-style drift (1% of a profile's cells replaced) as
 * ProfileStore::commitDelta at a fixed rate, then calls
 * ProfileCache::invalidate: the cost moves to the miss path (openView,
 * chain compaction under the store's exclusive lock, block decode) and
 * writes contend with reads.
 *
 * Each run first offers far more than the daemon can answer for one
 * second and counts what it does answer (the sustained rate), then
 * holds the workload's fixed offered rate for the latency percentiles.
 * (A rate ladder gated on a p99 limit was tried first: on a 4-vCPU
 * virtual machine, host stalls longer than a rung moved its answer by
 * up to 6x between runs, while the median-window answered rate at
 * overload repeats.) The sustained rate counts only when the generator
 * sent the overload on schedule (send rate and p50 send lag are checked
 * and printed); the daemon's Rejected count shows it shed load. The
 * in-process net::Server exposes no per-request hook, so only the
 * EngineTransport phase of the traced run records receiver-side spans.
 * Every Ok answer is checked against an oracle built straight from the
 * committed RetentionProfiles; under churn an answer is correct if it
 * matches any committed generation of its key.
 */

#include <atomic>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "campaign/profile_store.h"
#include "eval/fleet.h"
#include "ledger.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/obs.h"
#include "openloop.h"
#include "serve/workload.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace reaper;

constexpr uint64_t kRowBits = 2048 * 8; ///< 2 KiB rows
constexpr uint64_t kRowsPerChip = 1ull << 16;
constexpr size_t kCellsPerProfile = 20000;
const profiling::Conditions kCond{1.024, 45.0};
const std::vector<Seconds> kBins = {0.064, 0.256, 1.024};

/** What distinguishes the two serve workloads. */
struct Shape
{
    size_t keys;
    double zipf;
    /** Cache capacity as a share of the measured working set (0 = the
     *  daemon default of 64 MiB). */
    double cacheShare;
    /** Offered rate of the latency phase, requests/s. */
    double fixedRate;
    /** Offered rate of the capacity phase: well past the knee. */
    double overloadRate;
    /** Writer commits per second (0 = no writer). */
    double commitsPerSecond;
};

// The fixed rates sit at a fifth of the sustained rate or below, so a
// host that slows by half still answers them without a growing queue.
const Shape kHot{48, 0.99, 0.0, 50000, 1000000, 0};
const Shape kChurn{256, 0.5, 0.25, 5000, 150000, 20};

/** Length of the capacity phase. */
constexpr double kOverloadSeconds = 1.0;

/**
 * The capacity phase measures the daemon only when the generator really
 * offered the overload: it must hand requests to the connection at this
 * share of the offered rate or more.
 */
constexpr double kMinSendShare = 0.9;

/** The warm-up requests all go out at once: set-up time then counts the
 *  daemon's work on them, not the length of a send schedule. */
constexpr double kWarmUpRate = 1e9;

/**
 * Tails are taken per window of due times (100 ms, or longer so that a
 * window holds 1000 requests and its p99 has 10 beyond it) and the
 * median window is reported. On a virtual machine the host deschedules
 * a vCPU for a few ms about twice a second; each such stall ruins the
 * p99 of the window it falls in, so a whole-run p99 measures how many
 * stalls the run caught, while the median window measures the daemon.
 */
constexpr double kWindowSeconds = 0.1;

int
windowsIn(double seconds, double rate)
{
    double byTime = seconds / kWindowSeconds;
    double bySamples = seconds * rate / 1000.0;
    return std::max(1, static_cast<int>(std::min(byTime, bySamples)));
}

/** Weak rows of one committed generation: one bit per row of chip 0. */
struct Generation
{
    std::vector<uint64_t> weakRows;
    uint64_t committedNs = 0; ///< after commit + invalidate returned

    bool weak(uint64_t row) const
    {
        return (weakRows[row / 64] >> (row % 64)) & 1;
    }
};

Generation
oracleOf(const profiling::RetentionProfile &p, uint64_t committedNs)
{
    Generation g;
    g.weakRows.assign(kRowsPerChip / 64, 0);
    for (const dram::ChipFailure &c : p.cells()) {
        uint64_t row = c.addr / kRowBits;
        g.weakRows[row / 64] |= 1ull << (row % 64);
    }
    g.committedNs = committedNs;
    return g;
}

profiling::RetentionProfile
randomProfile(Rng &rng)
{
    std::vector<dram::ChipFailure> cells;
    cells.reserve(kCellsPerProfile);
    for (size_t i = 0; i < kCellsPerProfile; ++i)
        cells.push_back({0, rng.uniformInt(kRowsPerChip * kRowBits)});
    profiling::RetentionProfile p(kCond);
    p.add(cells);
    return p;
}

/** VRT-style drift: 1% of the cells stop failing, as many new ones do. */
profiling::RetentionProfile
drift(const profiling::RetentionProfile &prev, Rng &rng)
{
    std::vector<dram::ChipFailure> cells = prev.cells();
    const size_t d = std::max<size_t>(1, cells.size() / 100);
    for (size_t i = 0; i < d && !cells.empty(); ++i) {
        size_t victim = rng.uniformInt(cells.size());
        cells[victim] = cells.back();
        cells.pop_back();
    }
    for (size_t i = 0; i < d; ++i)
        cells.push_back({0, rng.uniformInt(kRowsPerChip * kRowBits)});
    profiling::RetentionProfile p(kCond);
    p.add(cells);
    return p;
}

/** Store, cache and daemon; destroyed daemon first. */
struct Daemon
{
    std::unique_ptr<campaign::ProfileStore> store;
    std::unique_ptr<serve::ProfileCache> cache;
    std::unique_ptr<net::Server> server;
    std::unique_ptr<WireTransport> wire;

    ~Daemon()
    {
        wire.reset();
        if (server) {
            server->stop();
            server->join();
        }
    }
};

serve::CacheConfig
cacheConfig(size_t capacityBytes)
{
    serve::CacheConfig c;
    c.capacityBytes = capacityBytes;
    c.directory.rowBits = kRowBits;
    c.directory.binIntervals = kBins;
    c.serveFromViews = true;
    return c;
}

serve::EngineConfig
engineConfig()
{
    serve::EngineConfig e;
    e.workers = 2;
    e.queueCapacity = 4096;
    return e;
}

/** The generated inputs of one run. */
struct Inputs
{
    std::vector<std::string> keys; ///< real keys first, then ghosts
    size_t realKeys = 0;
    std::vector<profiling::RetentionProfile> profiles;
    std::map<std::string, uint32_t> index;

    uint32_t intern(const std::string &k)
    {
        auto [it, fresh] =
            index.emplace(k, static_cast<uint32_t>(keys.size()));
        if (fresh)
            keys.push_back(k);
        return it->second;
    }

    std::vector<Query> stream(const Shape &shape, uint64_t seed, size_t n)
    {
        serve::WorkloadConfig wc;
        wc.keys.assign(keys.begin(),
                       keys.begin() + static_cast<ptrdiff_t>(realKeys));
        wc.zipfExponent = shape.zipf;
        wc.unknownFraction = 0.01;
        wc.rowsPerChip = kRowsPerChip;
        wc.binFraction = 0.5;
        serve::Workload w(wc, seed);
        std::vector<Query> out(n);
        for (Query &q : out) {
            serve::Request r = w.next();
            q.key = intern(r.key);
            q.chip = static_cast<uint16_t>(r.chip);
            q.row = static_cast<uint32_t>(r.row); // < kRowsPerChip
            q.kind = r.kind;
        }
        return out;
    }
};

/** Tally of answer checks over a run. */
struct Verdict
{
    uint64_t wrong = 0;
    uint64_t stale = 0;
    std::string firstWrong;
};

/**
 * Check every answer of one open-loop run. An Ok answer must match a
 * committed generation of its key; it is stale when it matches only
 * generations older than the one current at its due time.
 */
void
verify(const OpenLoopResult &r, const std::vector<Query> &stream,
       const Inputs &in, const std::vector<std::vector<Generation>> &gens,
       Verdict &v)
{
    const uint32_t defaultBin = static_cast<uint32_t>(kBins.size() - 1);
    for (size_t i = 0; i < r.sent; ++i) {
        if (r.latencyUs[i] < 0)
            continue;
        const Answer &a = r.answers[i];
        const Query &q = stream[i];
        const bool ghost = q.key >= in.realKeys;
        bool ok = true;
        bool stale = false;
        if (a.status == WireStatus::NotFound) {
            ok = ghost;
        } else if (a.status == WireStatus::Ok) {
            if (ghost) {
                ok = false;
            } else {
                const auto &gs = gens[q.key];
                const uint64_t sentNs =
                    r.t0Ns + static_cast<uint64_t>(static_cast<double>(i) *
                                                   r.nsPerReq);
                size_t current = 0;
                for (size_t g = 0; g < gs.size(); ++g)
                    if (gs[g].committedNs <= sentNs)
                        current = g;
                bool any = false, fresh = false;
                for (size_t g = 0; g < gs.size(); ++g) {
                    bool weak = gs[g].weak(q.row);
                    bool match = a.weak == weak;
                    if (q.kind == serve::QueryKind::RefreshBin) {
                        uint32_t bin = weak ? 0 : defaultBin;
                        match = match && a.bin == bin &&
                                a.interval == static_cast<float>(kBins[bin]);
                    }
                    any = any || match;
                    fresh = fresh || (match && g >= current);
                }
                ok = any;
                stale = any && !fresh;
            }
        }
        if (!ok) {
            if (v.wrong++ == 0)
                v.firstWrong = "request " + std::to_string(i) + " key " +
                               in.keys[q.key] + " row " +
                               std::to_string(q.row);
        }
        v.stale += stale ? 1 : 0;
    }
}

/** The run's writer: drift commits at a fixed rate until stopped. */
class Writer
{
  public:
    Writer(Daemon &d, const Inputs &in,
           std::vector<std::vector<Generation>> &gens, std::mutex &gensMtx,
           double rate, uint64_t seed, bool probes)
        : d_(d), keys_(in.keys.begin(),
                       in.keys.begin() +
                           static_cast<ptrdiff_t>(in.realKeys)),
          gens_(gens), gensMtx_(gensMtx), latest_(in.profiles), rate_(rate),
          rng_(seed), probes_(probes)
    {
        thread_ = std::thread([this] { loop(); });
    }
    ~Writer() { stop(); }

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    void stop()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
    }

    /** Valid after stop(). */
    std::vector<double> commitMs, openViewMs, missMs;
    std::string error;

  private:
    void loop()
    {
        try {
            const uint64_t t0 = nowNs();
            for (uint64_t j = 0; !stop_.load(); ++j) {
                uint64_t due = t0 + static_cast<uint64_t>(
                                        static_cast<double>(j) * 1e9 / rate_);
                while (nowNs() < due && !stop_.load())
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                if (stop_.load())
                    break;
                uint32_t k =
                    static_cast<uint32_t>(rng_.uniformInt(keys_.size()));
                profiling::RetentionProfile next = drift(latest_[k], rng_);
                const std::string &key = keys_[k];
                uint64_t a = nowNs();
                {
                    Scope s("campaign.commit_delta");
                    d_.store->commitDelta(key, next);
                    d_.cache->invalidate(key);
                }
                uint64_t b = nowNs();
                commitMs.push_back(static_cast<double>(b - a) / 1e6);
                Generation g = oracleOf(next, b);
                {
                    std::lock_guard<std::mutex> lock(gensMtx_);
                    gens_[k].push_back(std::move(g));
                }
                latest_[k] = std::move(next);
                if (probes_) {
                    uint64_t c = nowNs();
                    auto view = d_.store->openView(key);
                    uint64_t e = nowNs();
                    d_.cache->invalidate(key);
                    uint64_t f = nowNs();
                    d_.cache->isRowWeakView(key, 0, 0);
                    uint64_t g = nowNs();
                    if (!view)
                        throw std::runtime_error(view.error().describe());
                    openViewMs.push_back(static_cast<double>(e - c) / 1e6);
                    missMs.push_back(static_cast<double>(g - f) / 1e6);
                }
            }
        } catch (const std::exception &e) {
            error = e.what();
        }
    }

    Daemon &d_;
    /** The real keys (the main thread keeps interning ghost keys). */
    std::vector<std::string> keys_;
    std::vector<std::vector<Generation>> &gens_;
    std::mutex &gensMtx_; ///< guards gens_
    std::vector<profiling::RetentionProfile> latest_;
    double rate_;
    Rng rng_;
    bool probes_;
    std::atomic<bool> stop_{false};
    std::thread thread_; ///< last: uses every member above
};

/** Time `fn(i)` over batches of n calls; median ns per call. */
template <typename Fn>
double
nsPerCall(size_t n, Fn fn)
{
    std::vector<double> per;
    uint64_t sink = 0;
    for (int b = 0; b < 7; ++b) {
        uint64_t t0 = nowNs();
        for (size_t i = 0; i < n; ++i)
            sink += fn(i) ? 1 : 0;
        per.push_back(static_cast<double>(nowNs() - t0) /
                      static_cast<double>(n));
    }
    volatile uint64_t keep = sink;
    (void)keep;
    return median(per);
}

} // namespace

Report
runServe(const RunContext &ctx, bool churn)
{
    Report rep;
    const Shape &shape = churn ? kChurn : kHot;

    // Inputs: one synthetic retention profile per key, from the seed.
    Inputs in;
    for (size_t k = 0; k < shape.keys; ++k) {
        Rng rng(eval::fleetSeed(ctx.seed, k));
        char id[32];
        std::snprintf(id, sizeof(id), "chip-%03zu", k);
        in.intern(campaign::ProfileStore::profileKey(id, kCond));
        in.profiles.push_back(randomProfile(rng));
    }
    in.realKeys = in.keys.size();
    std::vector<std::vector<Generation>> gens;
    for (const auto &p : in.profiles)
        gens.push_back({oracleOf(p, 0)});
    std::vector<Query> warm;
    for (uint32_t k = 0; k < in.realKeys; ++k)
        warm.push_back({.key = k, .row = k});

    // The store the daemon serves, populated once and untimed. The commit
    // path is timed by the reprofile workload; populating the store in
    // every set-up repeat wrote and deleted so many files that set-up
    // time rose from one run to the next with the disk's backlog.
    // The cache budget of serve_churn is a share of the working set as
    // held by a cache big enough for all of it: the benchmark's choice,
    // measured here too.
    const std::string storeDir = ctx.workDir + "/store";
    size_t capacity = 64ull << 20;
    {
        campaign::ProfileStore store(storeDir);
        for (size_t k = 0; k < in.realKeys; ++k)
            store.commit(in.keys[k], in.profiles[k]);
        if (shape.cacheShare > 0) {
            serve::ProfileCache probe(store, cacheConfig(64ull << 20));
            for (size_t k = 0; k < in.realKeys; ++k)
                probe.isRowWeakView(in.keys[k], 0, 0);
            capacity = static_cast<size_t>(
                static_cast<double>(probe.counters().bytes) *
                shape.cacheShare);
        }
    }

    // Set-up: daemon start on the populated store, as serve_daemon
    // starts (open the store, cache and server), connect, key list
    // check and cache warm-up, repeated; the median is setup_s.
    std::unique_ptr<Daemon> d;
    std::vector<double> setups;
    const int repeats = ctx.trace ? 1 : kSetupRepeats;
    Verdict verdict;
    for (int rpt = 0; rpt < repeats; ++rpt) {
        d.reset();
        double t0 = nowSeconds();
        d = std::make_unique<Daemon>();
        d->store = std::make_unique<campaign::ProfileStore>(storeDir);
        d->cache = std::make_unique<serve::ProfileCache>(
            *d->store, cacheConfig(capacity));
        net::ServerConfig sc;
        sc.keys.assign(in.keys.begin(),
                       in.keys.begin() +
                           static_cast<ptrdiff_t>(in.realKeys));
        d->server = std::make_unique<net::Server>(*d->cache, engineConfig(),
                                                  sc);
        if (common::Status s = d->server->start(); !s)
            throw std::runtime_error(s.error().describe());
        auto client = net::Client::connect("127.0.0.1", d->server->port());
        if (!client)
            throw std::runtime_error(client.error().describe());
        auto listed = client.value().listKeys();
        if (!listed || listed.value() != sc.keys)
            rep.fail("daemon ListKeys does not match the store");
        auto wire = WireTransport::connect("127.0.0.1", d->server->port());
        if (!wire)
            throw std::runtime_error(wire.error().describe());
        d->wire = std::move(wire.value());
        OpenLoopResult wr = runOpenLoop(kWarmUpRate, warm, in.keys, *d->wire);
        setups.push_back(nowSeconds() - t0);
        rep.attempted += wr.sent;
        if (!wr.accountingHolds() || wr.rejected != 0) {
            rep.failed += wr.sent - wr.ok - wr.notFound;
            rep.fail("warm-up lost or rejected requests");
        }
        verify(wr, warm, in, gens, verdict);
    }

    std::mutex gensMtx;
    std::unique_ptr<Writer> writer;
    if (shape.commitsPerSecond > 0)
        writer = std::make_unique<Writer>(
            *d, in, gens, gensMtx, shape.commitsPerSecond,
            eval::fleetSeed(ctx.seed, 0xD81F7), ctx.trace);

    uint64_t streamSeed = eval::fleetSeed(ctx.seed, 0x5E4E);
    // One open-loop phase at `rate` for `seconds`, checked as soon as
    // it ends: its answers can only come from generations committed by
    // then. The capacity phase overloads the daemon on purpose, so its
    // Rejected answers are shed load, not failures; everywhere, every
    // request must be answered exactly once and correctly.
    auto phase = [&](Transport &t, double rate, double seconds,
                     bool overload) {
        std::vector<Query> stream = in.stream(
            shape, streamSeed++, static_cast<size_t>(rate * seconds));
        OpenLoopResult r = runOpenLoop(rate, stream, in.keys, t);
        rep.attempted += r.sent;
        if (!r.accountingHolds()) {
            rep.failed += r.unanswered() + r.bogus;
            rep.fail("open loop: " + std::to_string(r.unanswered()) +
                     " unanswered, " + std::to_string(r.bogus) +
                     " stray answers" +
                     (r.transportError ? ", transport error" : ""));
        }
        if (!overload)
            rep.failed += r.rejected;
        std::lock_guard<std::mutex> lock(gensMtx);
        verify(r, stream, in, gens, verdict);
        return r;
    };
    // Refused or unanswered requests miss every latency limit.
    auto latencies = [](const OpenLoopResult &r) {
        std::vector<double> out = r.latencies(false);
        out.resize(r.sent, kInfiniteUs);
        return out;
    };

    if (!ctx.trace) {
        // Capacity: offer more than the daemon can answer and count what
        // it answers (Rejected excluded) per 100 ms window.
        const OpenLoopResult over =
            phase(*d->wire, shape.overloadRate, kOverloadSeconds, true);
        const double goodput = over.windowedGoodput(kWindowSeconds);
        const double overLagUs = percentile(over.lagUs, 0.5);
        std::cout << "overload " << shape.overloadRate << " req/s offered, "
                  << over.sendRate() << " req/s sent: " << over.rejected
                  << " of " << over.sent << " rejected, p50 send lag "
                  << overLagUs << " us, generator busy "
                  << over.cpuSeconds / over.elapsed << "\n";
        if (over.sendRate() < kMinSendShare * shape.overloadRate ||
            overLagUs > kWindowSeconds * 1e6)
            rep.fail("capacity phase invalid: the generator sent " +
                     std::to_string(over.sendRate()) + " req/s of " +
                     std::to_string(shape.overloadRate) +
                     " offered, p50 send lag " + std::to_string(overLagUs) +
                     " us");
        const double left = std::max(1.0, ctx.seconds - kOverloadSeconds);
        const OpenLoopResult fixed =
            phase(*d->wire, shape.fixedRate, left, false);
        const std::vector<double> lat = latencies(fixed);
        const int windows = windowsIn(left, shape.fixedRate);
        LatencySummary lag = summarize(fixed.lagUs);
        if (writer)
            writer->stop();

        const std::string at =
            "at " + std::to_string(static_cast<int>(shape.fixedRate)) +
            " req/s offered";
        rep.add("ops_per_s", goodput, "1/s",
                static_cast<uint64_t>(kOverloadSeconds / kWindowSeconds),
                "sustained_qps: median 100 ms window of answered requests "
                "at " +
                    std::to_string(static_cast<int>(shape.overloadRate)) +
                    " req/s offered");
        rep.add("p50_us", percentile(lat, 0.5), "us", lat.size(), at);
        rep.add("setup_s", median(setups), "s", setups.size());
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        rep.add("p99_us", fixed.windowedPercentile(0.99, windows), "us",
                lat.size(),
                "median over " + std::to_string(windows) + " windows " + at);
        rep.add("p99_whole_run_us", percentile(lat, 0.99), "us", lat.size(),
                "stalls included");
        rep.add("loadgen.lag_us", lag.tail, "us", lag.n,
                "p" + std::to_string(static_cast<int>(lag.tailQ * 100)) +
                    " send lag");
        rep.add("loadgen.overload_send_rate", over.sendRate(), "1/s",
                over.sent, "requests handed to the connection per second");
        rep.add("loadgen.overload_lag_p50_us", overLagUs, "us",
                over.lagUs.size(), "p50 send lag at overload");
        rep.add("loadgen.overload_busy_fraction",
                over.cpuSeconds / over.elapsed, "ratio", 0,
                "generator thread CPU time over the capacity phase");
        rep.add("serve.overload_rejected", static_cast<double>(over.rejected),
                "count", over.sent, "shed by the daemon at overload");
        if (writer)
            rep.add("commit_p50_ms", median(writer->commitMs), "ms",
                    writer->commitMs.size(), "commitDelta + invalidate");
    } else {
        const double part = ctx.seconds / 4;
        obs::ObsMode mode = obs::mode();
        obs::setMode(obs::ObsMode::Off);
        const OpenLoopResult plain =
            phase(*d->wire, shape.fixedRate, part, false);
        obs::setMode(mode);
        Ledger::global().enable(true);

        const serve::CacheCounters c0 = d->cache->counters();
        const double compactions0 = obsCounter("campaign.store_compactions");
        const double decodes0 = obsCounter("profiling.view_block_decodes");
        const double opens0 = obsCounter("profiling.view_opens");
        const uint64_t bytes0 = d->wire->bytesIn() + d->wire->bytesOut();
        const uint64_t frames0 = d->wire->framesIn() + d->wire->framesOut();
        const OpenLoopResult traced =
            phase(*d->wire, shape.fixedRate, part, false);
        const serve::CacheCounters c1 = d->cache->counters();
        const double sent = static_cast<double>(traced.sent);
        const double bytes = static_cast<double>(
            d->wire->bytesIn() + d->wire->bytesOut() - bytes0);
        const double frames = static_cast<double>(
            d->wire->framesIn() + d->wire->framesOut() - frames0);
        const double compactions =
            obsCounter("campaign.store_compactions") - compactions0;
        const double decodes = obsCounter("profiling.view_block_decodes") - decodes0;
        const double opens = obsCounter("profiling.view_opens") - opens0;

        // The same stream straight into the engine, traced on both sides.
        EngineTransport engine(*d->cache, engineConfig());
        const OpenLoopResult direct =
            phase(engine, shape.fixedRate, part, false);

        // Single-call probes of the hot path's two lookups.
        serve::RefreshDirectory dir = serve::RefreshDirectory::compile(
            in.profiles[0], cacheConfig(capacity).directory);
        Rng rows(ctx.seed);
        std::vector<uint64_t> probeRows(4096);
        for (uint64_t &r : probeRows)
            r = rows.uniformInt(kRowsPerChip);
        double dirNs = nsPerCall(200000, [&](size_t i) {
            return dir.isRowWeak(0, probeRows[i % probeRows.size()]);
        });
        d->cache->isRowWeakView(in.keys[0], 0, 0);
        double hitNs = nsPerCall(200000, [&](size_t i) {
            return d->cache->isRowWeakView(in.keys[0], 0,
                                           probeRows[i % probeRows.size()])
                .weak;
        });
        Ledger::global().enable(false);
        if (writer)
            writer->stop();

        LatencySummary wireLat = summarize(latencies(traced));
        LatencySummary plainLat = summarize(latencies(plain));
        LatencySummary engLat = summarize(latencies(direct));
        LatencySummary lag = summarize(traced.lagUs);
        const double lookups = static_cast<double>(
            (c1.hits - c0.hits) + (c1.misses - c0.misses) +
            (c1.negativeHits - c0.negativeHits) +
            (c1.viewHits - c0.viewHits) + (c1.viewLoads - c0.viewLoads));
        const double hits = static_cast<double>(
            (c1.hits - c0.hits) + (c1.viewHits - c0.viewHits) +
            (c1.negativeHits - c0.negativeHits));

        rep.add("serve.directory_lookup_ns", dirNs, "ns", 7);
        rep.add("serve.cache_hit_ns", hitNs, "ns", 7);
        rep.add("serve.engine_p50_us", engLat.p50, "us", engLat.n);
        rep.add("serve.engine_p99_us",
                direct.windowedPercentile(
                    0.99, windowsIn(part, shape.fixedRate)),
                "us",
                engLat.n, "median over 100 ms windows");
        rep.add("net.overhead_p50_us", wireLat.p50 - engLat.p50, "us",
                wireLat.n, "wire p50 minus engine p50");
        rep.add("net.wire_p99_us",
                traced.windowedPercentile(
                    0.99, windowsIn(part, shape.fixedRate)),
                "us",
                wireLat.n, "median over 100 ms windows");
        rep.add("net.bytes_per_request", bytes / sent, "B", traced.sent);
        rep.add("net.frames_per_request", frames / sent, "count",
                traced.sent);
        rep.add("serve.rejected", static_cast<double>(traced.rejected),
                "count", traced.sent);
        rep.add("serve.cache_hit_rate", lookups > 0 ? hits / lookups : 0,
                "ratio", static_cast<uint64_t>(lookups));
        rep.add("serve.cache_lookups", lookups, "count", 0,
                "base of serve.cache_hit_rate");
        rep.add("serve.evictions",
                static_cast<double>(c1.evictions - c0.evictions), "count");
        rep.add("campaign.store_compactions", compactions, "count");
        rep.add("profiling.view_block_decodes", decodes, "count");
        rep.add("profiling.view_opens", opens, "count");
        rep.add("loadgen.lag_us", lag.tail, "us", lag.n,
                "p" + std::to_string(static_cast<int>(lag.tailQ * 100)) +
                    " send lag");
        rep.add("obs.trace_overhead", wireLat.p50 / plainLat.p50 - 1.0,
                "ratio", wireLat.n, "traced vs untraced wire p50");
        if (writer) {
            rep.add("campaign.commit_delta_ms", median(writer->commitMs),
                    "ms", writer->commitMs.size());
            rep.add("campaign.open_view_ms", median(writer->openViewMs), "ms",
                    writer->openViewMs.size(), "after a delta: compacts");
            rep.add("serve.cache_miss_ms", median(writer->missMs), "ms",
                    writer->missMs.size(), "isRowWeakView on a cold key");
        }
        rep.add("serve.stale_answers", static_cast<double>(verdict.stale),
                "count");
    }
    if (writer && !writer->error.empty())
        rep.fail("writer: " + writer->error);
    if (verdict.wrong) {
        rep.failed += verdict.wrong;
        rep.fail(std::to_string(verdict.wrong) + " wrong answers, first: " +
                 verdict.firstWrong);
    }
    return rep;
}

} // namespace perfbench
