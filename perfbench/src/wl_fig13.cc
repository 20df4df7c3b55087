/**
 * @file
 * Workload `fig13_sim`: eval::EndToEndEvaluator::run on a reduced
 * Fig. 13 configuration — six short mixes instead of twenty, both chip
 * densities, every refresh interval — with fleet threads = nproc. No
 * other workload reaches sim, workload or power, and the Fig. 13 bench
 * is the largest figure bench.
 *
 * The measured unit is one whole sweep, repeated until --seconds
 * elapse; every sweep of a run must produce the same results, and the
 * gate sweep (fixed seed) must match a recorded digest at 1 and N
 * threads, so a speed-only change provably leaves the simulated
 * statistics unchanged.
 */

#include <bit>
#include <set>

#include "eval/endtoend.h"
#include "ledger.h"
#include "obs/obs.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace reaper;

constexpr uint64_t kGateSeed = 1;
/** sweepDigest of the gate sweep, recorded from this code. */
constexpr uint64_t kGateDigest = 0xd189efc35a4d4ae2ull;

eval::EndToEndConfig
sweepConfig(uint64_t seed, unsigned threads)
{
    eval::EndToEndConfig cfg;
    cfg.refreshIntervals = {0.128, 0.256, 0.512, 1.024, 1.280, 1.536};
    cfg.includeNoRefresh = true;
    cfg.chipGbits = {8, 64};
    // Six mixes, so the distinct-benchmark count (which sets the number
    // of "alone" runs) and the per-benchmark cost average out across
    // seeds; short runs keep a sweep near half a second.
    cfg.numMixes = 6;
    cfg.accessesPerCore = 4000;
    cfg.runCycles = 50000;
    cfg.seed = seed;
    cfg.threads = threads;
    return cfg;
}

uint64_t
mix(uint64_t h, double v)
{
    uint64_t bits = std::bit_cast<uint64_t>(v);
    return fnv1a(&bits, sizeof(bits), h);
}

uint64_t
sweepDigest(const std::vector<eval::SweepPoint> &points)
{
    uint64_t h = fnv1a("", 0);
    for (const eval::SweepPoint &pt : points) {
        h = mix(h, pt.chipGbit);
        h = mix(h, pt.interval);
        h = mix(h, pt.noRefresh ? 1.0 : 0.0);
        for (int k = 0; k < eval::kNumProfilerKinds; ++k) {
            for (double v : pt.perfImprovement[static_cast<size_t>(k)])
                h = mix(h, v);
            for (double v : pt.powerReduction[static_cast<size_t>(k)])
                h = mix(h, v);
            const eval::OverheadResult &o = pt.overhead[static_cast<size_t>(k)];
            h = mix(h, o.roundTime);
            h = mix(h, o.reprofileInterval);
            h = mix(h, o.overheadFraction);
        }
    }
    return h;
}

/** Simulator runs one sweep makes (see EndToEndEvaluator::run). */
uint64_t
sweepJobs(const eval::EndToEndConfig &cfg,
          const std::vector<workload::WorkloadMix> &mixes)
{
    std::set<int> benches;
    for (const auto &m : mixes)
        benches.insert(m.benchmarks.begin(), m.benchmarks.end());
    uint64_t intervals = 1 + cfg.refreshIntervals.size() +
                         (cfg.includeNoRefresh ? 1 : 0);
    return cfg.chipGbits.size() * (benches.size() + intervals * mixes.size());
}

/** The traces one sweep generates before simulating. */
std::vector<std::vector<sim::Trace>>
generateTraces(const eval::EndToEndConfig &cfg,
               const std::vector<workload::WorkloadMix> &mixes)
{
    std::vector<std::vector<sim::Trace>> out;
    for (const auto &m : mixes)
        out.push_back(
            workload::tracesForMix(m, cfg.accessesPerCore, cfg.seed));
    return out;
}

} // namespace

Report
runFig13(const RunContext &ctx)
{
    Report rep;

    if (!ctx.trace) {
        uint64_t digests[2] = {0, 0};
        const unsigned threads[2] = {1, ctx.nproc};
        for (int i = 0; i < 2; ++i) {
            eval::EndToEndEvaluator gate(sweepConfig(kGateSeed, threads[i]));
            digests[i] = sweepDigest(gate.run());
            rep.attempted += 1;
        }
        if (digests[0] != digests[1])
            rep.fail("fig13 sweep differs between 1 and " +
                     std::to_string(ctx.nproc) + " threads");
        if (digests[0] != kGateDigest)
            rep.fail("fig13 gate digest " + hex64(digests[0]) +
                     " != recorded " + hex64(kGateDigest));
        if (!rep.correct)
            rep.failed += 1;
    }

    // Set-up: evaluator construction, trace generation and one warm-up
    // sweep, repeated; every sweep after must reproduce the first.
    const eval::EndToEndConfig cfg = sweepConfig(ctx.seed, ctx.nproc);
    std::vector<double> setups, traceGen;
    std::vector<std::vector<sim::Trace>> traces;
    std::vector<workload::WorkloadMix> mixes;
    uint64_t first = 0;
    for (int k = 0; k < kSetupRepeats; ++k) {
        double t0 = nowSeconds();
        eval::EndToEndEvaluator ev(cfg);
        traces = generateTraces(cfg, ev.mixes());
        traceGen.push_back(nowSeconds() - t0);
        mixes = ev.mixes();
        uint64_t d = sweepDigest(ev.run());
        setups.push_back(nowSeconds() - t0);
        if (k == 0)
            first = d;
        rep.attempted += 1;
        if (d != first) {
            rep.failed += 1;
            rep.fail("fig13 warm-up sweeps disagree");
        }
    }
    const double cyclesPerSweep =
        static_cast<double>(sweepJobs(cfg, mixes)) *
        static_cast<double>(cfg.runCycles);

    auto sweeps = [&](double seconds, std::vector<double> &times,
                      size_t minSweeps) {
        const double deadline = nowSeconds() + seconds;
        do {
            eval::EndToEndEvaluator ev(cfg);
            double t0 = nowSeconds();
            std::vector<eval::SweepPoint> pts = [&]() {
                Scope s("eval.sweep");
                return ev.run();
            }();
            times.push_back(nowSeconds() - t0);
            uint64_t d = sweepDigest(pts);
            rep.attempted += 1;
            if (d != first) {
                rep.failed += 1;
                rep.fail("fig13 sweep results changed between sweeps");
            }
        } while (nowSeconds() < deadline || times.size() < minSweeps);
    };

    if (!ctx.trace) {
        std::vector<double> times;
        sweeps(ctx.seconds, times, kMinSamples);
        double total = 0;
        std::vector<double> us;
        for (double t : times) {
            total += t;
            us.push_back(t * 1e6);
        }
        LatencySummary lat = summarize(us);
        rep.add("ops_per_s",
                cyclesPerSweep * static_cast<double>(times.size()) / total,
                "1/s", times.size(),
                "simulated memory-controller cycles per host second");
        rep.add("p50_us", lat.p50, "us", lat.n, "one sweep");
        rep.add("tail_us", lat.tail, "us", lat.n,
                "p" + std::to_string(static_cast<int>(lat.tailQ * 100)) +
                    " of sweeps");
        rep.add("setup_s", median(setups), "s", setups.size());
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        return rep;
    }

    // Traced run: untraced sweeps, then sweeps under counters + spans.
    Ledger::global().clear();
    obs::ObsMode mode = obs::mode();
    obs::setMode(obs::ObsMode::Off);
    std::vector<double> plain, traced;
    sweeps(ctx.seconds / 4, plain, 1);
    obs::setMode(mode);
    Ledger::global().enable(true);
    const double b0 = obsCounter("fleet.busy_ns");
    sweeps(ctx.seconds / 4, traced, 1);
    const double busy = obsCounter("fleet.busy_ns") - b0;

    // Single simulator runs, as the sweep's jobs make them.
    std::vector<double> runNs;
    uint64_t commands = 0, llcMisses = 0;
    for (unsigned chip : cfg.chipGbits) {
        for (Seconds interval : {kJedecRefreshInterval, 1.024}) {
            for (const auto &mixTraces : traces) {
                sim::SystemConfig sys = cfg.system;
                sys.setDram(chip, interval);
                sim::System system(sys, mixTraces);
                uint64_t t0 = nowNs();
                {
                    Scope s("sim.run");
                    system.run(cfg.runCycles);
                }
                runNs.push_back(static_cast<double>(nowNs() - t0));
                sim::SystemStats st = system.stats();
                const sim::CommandCounts &c = st.channels.commands;
                commands += c.act + c.pre + c.rd + c.wr + c.refab + c.refpb;
                llcMisses += st.llc.misses;
            }
        }
    }
    Ledger::global().enable(false);

    double tracedWall = 0;
    for (double t : traced)
        tracedWall += t;
    rep.add("workload.trace_gen_ms", median(traceGen) * 1e3, "ms",
            traceGen.size(), "evaluator set-up and trace generation");
    rep.add("sim.run_ms", median(runNs) / 1e6, "ms", runNs.size());
    rep.add("sim.host_ns_per_mem_cycle",
            median(runNs) / static_cast<double>(cfg.runCycles), "ns",
            runNs.size());
    rep.add("sim.dram_commands", static_cast<double>(commands), "count",
            runNs.size());
    rep.add("sim.llc_misses", static_cast<double>(llcMisses), "count",
            runNs.size());
    rep.add("fleet.busy_fraction", busy / (tracedWall * 1e9 * ctx.nproc),
            "ratio", traced.size());
    rep.add("obs.trace_overhead", median(traced) / median(plain) - 1.0,
            "ratio", traced.size(), "traced vs untraced sweep wall");
    return rep;
}

} // namespace perfbench
