/**
 * @file
 * Workload `reprofile`: closed-loop reach reprofiling of a fleet of
 * paper-size 2 GB chips into a fresh ProfileStore — the operator's
 * campaign path. dram (module set-up and the read path), testbed,
 * profiling, the fleet engine and the campaign commit do all the work;
 * serve and net do none.
 *
 * The measured unit is a pass: one campaign::runCampaign over a fleet
 * of 2 x nproc chips (vendors A/B/C) with one reach round each (+250 ms
 * over 1024 ms at 45 C), fleet threads = nproc. Passes repeat back to
 * back, each into a fresh campaign directory, until --seconds elapse.
 *
 * runCampaign builds its hosts internally, so the traced run replays
 * the same (chip, round) tasks through the public calls it makes — the
 * DramModule constructor, Profiler::profile on a SoftMcHost subclass
 * that times each host op, ProfileStore::commit, CampaignJournal::
 * append — and requires the replayed store to be byte-identical to the
 * runCampaign store.
 */

#include <filesystem>
#include <mutex>
#include <optional>

#include "campaign/campaign.h"
#include "ledger.h"
#include "obs/obs.h"
#include "stats.h"
#include "workloads.h"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

using namespace reaper;

constexpr uint64_t kChipBits = 16ull * 1024 * 1024 * 1024; // 2 GB
const dram::TestEnvelope kEnvelope{2.048, 50.0};

/** The gate campaign: fixed seed, three chips (one per vendor). */
constexpr uint64_t kGateSeed = 2017;
constexpr size_t kGateChips = 3;
/** dirDigest of the gate campaign's store, recorded from this code. */
constexpr uint64_t kGateDigest = 0x2514fc0d29dd0ea6ull;

campaign::CampaignConfig
passConfig(const std::string &dir, uint64_t baseSeed, size_t chips,
           unsigned threads)
{
    campaign::CampaignConfig cfg;
    cfg.dir = dir;
    cfg.name = "perfbench-reprofile";
    cfg.baseSeed = baseSeed;
    cfg.chips = campaign::makeChipFleet(chips, baseSeed, kChipBits, kEnvelope);
    campaign::RoundSpec reach;
    reach.target = {1.024, 45.0};
    reach.profiler = campaign::ProfilerKind::Reach;
    reach.reachDeltaRefresh = 0.250;
    cfg.rounds = {reach};
    cfg.fleet.threads = threads;
    return cfg;
}

/** Run one pass; returns its wall seconds, checks it completed. */
double
runPass(const campaign::CampaignConfig &cfg, Report &rep)
{
    double t0 = nowSeconds();
    campaign::CampaignStats stats = campaign::runCampaign(cfg);
    double dt = nowSeconds() - t0;
    rep.attempted += stats.tasksTotal;
    if (!stats.complete() || stats.roundsThisRun != stats.tasksTotal) {
        rep.failed += stats.tasksTotal - stats.roundsThisRun;
        rep.fail("pass in " + cfg.dir + " committed " +
                 std::to_string(stats.roundsThisRun) + " of " +
                 std::to_string(stats.tasksTotal) + " rounds");
    }
    return dt;
}

std::string
storeDir(const campaign::CampaignConfig &cfg)
{
    return cfg.dir + "/store";
}

/** The host a campaign round runs on, with every op timed. */
class TimedHost : public testbed::SoftMcHost
{
  public:
    using testbed::SoftMcHost::SoftMcHost;

    void setAmbient(Celsius a) override
    {
        Scope s("testbed.set_ambient");
        SoftMcHost::setAmbient(a);
    }
    void writeAll(dram::DataPattern p) override
    {
        Scope s("testbed.write_all");
        SoftMcHost::writeAll(p);
    }
    void restoreAll() override
    {
        Scope s("testbed.restore_all");
        SoftMcHost::restoreAll();
    }
    void disableRefresh() override
    {
        Scope s("testbed.disable_refresh");
        SoftMcHost::disableRefresh();
    }
    void enableRefresh() override
    {
        Scope s("testbed.enable_refresh");
        SoftMcHost::enableRefresh();
    }
    void wait(Seconds t) override
    {
        Scope s("testbed.wait");
        SoftMcHost::wait(t);
    }
    std::vector<dram::ChipFailure> readAndCompareAll() override
    {
        Scope s("testbed.read_compare");
        return SoftMcHost::readAndCompareAll();
    }
};

/**
 * Replay a pass's tasks through the public calls runCampaign makes,
 * into `dir`, on the fleet engine. Returns wall seconds.
 */
double
replayPass(const campaign::CampaignConfig &cfg, const std::string &dir)
{
    fs::create_directories(dir);
    campaign::ProfileStore store(dir + "/store");
    auto journal = campaign::CampaignJournal::open(
        dir + "/journal.log", campaign::campaignFingerprint(cfg));
    if (!journal)
        throw std::runtime_error(journal.error().describe());
    const campaign::RoundSpec &round = cfg.rounds.at(0);
    profiling::ProfilerSpec spec;
    spec.iterations = round.iterations;
    spec.setTemperature = round.setTemperature;
    spec.reachDeltaRefresh = round.reachDeltaRefresh;
    spec.reachDeltaTemp = round.reachDeltaTemp;
    std::mutex commitMtx;

    double t0 = nowSeconds();
    eval::runFleet(
        cfg.chips.size(),
        [&](size_t c) -> int {
            Scope task("reprofile.round");
            auto profiler = profiling::makeProfiler(
                                campaign::resolvedProfilerName(round), spec)
                                .value();
            std::optional<dram::DramModule> module;
            {
                Scope s("dram.module_build");
                module.emplace(cfg.chips[c].config);
            }
            TimedHost host(*module, cfg.host);
            common::Expected<profiling::ProfilingResult> result =
                [&]() {
                    Scope s("profiling.profile");
                    return profiler->profile(host, round.target);
                }();
            if (!result)
                throw std::runtime_error(result.error().describe());
            campaign::RoundRecord rec;
            rec.chip = static_cast<uint32_t>(c);
            rec.cells = result.value().profile.size();
            std::lock_guard<std::mutex> lock(commitMtx);
            {
                Scope s("campaign.commit");
                store.commit(campaign::roundKey(cfg, c, 0),
                             result.value().profile);
            }
            {
                Scope s("campaign.journal_append");
                journal.value()->append(rec);
            }
            return 0;
        },
        cfg.fleet);
    return nowSeconds() - t0;
}

double
medianOf(const std::map<std::string, LayerTotals> &t, const char *name,
         bool self, double scale)
{
    auto it = t.find(name);
    if (it == t.end())
        return 0.0;
    return median(self ? it->second.selfEachNs : it->second.durNs) / scale;
}

void
gate(const RunContext &ctx, Report &rep)
{
    uint64_t digests[2] = {0, 0};
    const unsigned threads[2] = {1, ctx.nproc};
    for (int i = 0; i < 2; ++i) {
        auto cfg = passConfig(ctx.workDir + "/gate-" + std::to_string(i),
                              kGateSeed, kGateChips, threads[i]);
        runPass(cfg, rep);
        digests[i] = dirDigest(storeDir(cfg));
        fs::remove_all(cfg.dir);
    }
    if (digests[0] != digests[1])
        rep.fail("reprofile store differs between 1 and " +
                 std::to_string(ctx.nproc) + " fleet threads");
    if (digests[0] != kGateDigest)
        rep.fail("reprofile gate store digest " + hex64(digests[0]) +
                 " != recorded " + hex64(kGateDigest));
}

} // namespace

Report
runReprofile(const RunContext &ctx)
{
    Report rep;
    const size_t chips = 2 * static_cast<size_t>(ctx.nproc);
    auto passFor = [&](const std::string &name, uint64_t k) {
        return passConfig(ctx.workDir + "/" + name,
                          eval::fleetSeed(ctx.seed, k), chips, ctx.nproc);
    };

    if (!ctx.trace)
        gate(ctx, rep);

    // Set-up: a fresh campaign directory and one warm-up pass (page
    // faults, allocator growth), repeated; the median is setup_s.
    std::vector<double> setups;
    for (int k = 0; k < kSetupRepeats; ++k) {
        auto cfg = passFor("setup-" + std::to_string(k), 1000 + k);
        setups.push_back(runPass(cfg, rep));
        fs::remove_all(cfg.dir);
    }

    if (!ctx.trace) {
        std::vector<double> passes;
        double rounds = 0;
        const double deadline = nowSeconds() + ctx.seconds;
        for (uint64_t k = 0;
             nowSeconds() < deadline || passes.size() < kMinSamples; ++k) {
            auto cfg = passFor("pass", k);
            passes.push_back(runPass(cfg, rep));
            rounds += static_cast<double>(chips);
            fs::remove_all(cfg.dir);
        }
        double total = 0;
        for (double p : passes)
            total += p;
        std::vector<double> us;
        for (double p : passes)
            us.push_back(p * 1e6);
        LatencySummary lat = summarize(us);
        rep.add("ops_per_s", rounds / total, "1/s", passes.size(),
                "rounds_per_s: rounds committed per host second");
        rep.add("p50_us", lat.p50, "us", lat.n, "one fleet pass");
        rep.add("tail_us", lat.tail, "us", lat.n,
                "p" + std::to_string(static_cast<int>(lat.tailQ * 100)) +
                    " of fleet passes");
        rep.add("setup_s", median(setups), "s", setups.size());
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        return rep;
    }

    // Traced run. Campaign passes under REAPER_OBS=counters give the
    // registry counts; the replay gives per-layer times.
    const double c0Commands = obsCounter("testbed.commands");
    const double c0Busy = obsCounter("fleet.busy_ns");
    double passWall = 0;
    size_t passRounds = 0;
    const double deadline = nowSeconds() + ctx.seconds / 2;
    auto first = passFor("pass-0", 0);
    for (uint64_t k = 0; k == 0 || nowSeconds() < deadline; ++k) {
        auto cfg = passFor("pass-" + std::to_string(k), k);
        passWall += runPass(cfg, rep);
        passRounds += chips;
        if (k > 0)
            fs::remove_all(cfg.dir);
    }
    const double commands = obsCounter("testbed.commands") - c0Commands;
    const double busyNs = obsCounter("fleet.busy_ns") - c0Busy;
    const uint64_t campaignDigest = dirDigest(storeDir(first));

    // Replay untraced, then traced: the ratio is the tracing overhead.
    obs::ObsMode mode = obs::mode();
    obs::setMode(obs::ObsMode::Off);
    double plain = replayPass(first, ctx.workDir + "/replay-plain");
    uint64_t plainDigest = dirDigest(ctx.workDir + "/replay-plain/store");
    obs::setMode(mode);
    Ledger::global().enable(true);
    double traced = replayPass(first, ctx.workDir + "/replay-traced");
    Ledger::global().enable(false);
    uint64_t tracedDigest = dirDigest(ctx.workDir + "/replay-traced/store");
    rep.attempted += 2 * first.chips.size();
    if (plainDigest != campaignDigest || tracedDigest != campaignDigest) {
        rep.failed += first.chips.size();
        rep.fail("replayed store is not byte-identical to the "
                 "runCampaign store");
    }

    auto t = Ledger::global().totals();
    const double n = static_cast<double>(chips);
    rep.add("dram.module_build_ms",
            medianOf(t, "dram.module_build", false, 1e6), "ms", chips);
    rep.add("dram.read_compare_ms",
            medianOf(t, "testbed.read_compare", false, 1e6), "ms",
            t["testbed.read_compare"].count);
    rep.add("testbed.write_all_ms",
            medianOf(t, "testbed.write_all", false, 1e6), "ms",
            t["testbed.write_all"].count);
    rep.add("testbed.commands", commands / static_cast<double>(passRounds),
            "count/round", passRounds);
    rep.add("profiling.round_self_ms",
            medianOf(t, "profiling.profile", true, 1e6), "ms", chips);
    rep.add("campaign.commit_ms", medianOf(t, "campaign.commit", false, 1e6),
            "ms", chips);
    rep.add("campaign.journal_append_us",
            medianOf(t, "campaign.journal_append", false, 1e3), "us", chips);
    rep.add("fleet.busy_fraction",
            busyNs / (passWall * 1e9 *
                      std::min<double>(ctx.nproc, static_cast<double>(chips))),
            "ratio", passRounds);
    rep.add("reprofile.unaccounted_ms",
            medianOf(t, "reprofile.round", true, 1e6), "ms", chips,
            "round wall time outside every timed call");
    rep.add("obs.trace_overhead", traced / plain - 1.0, "ratio",
            static_cast<uint64_t>(n), "traced vs untraced replay wall");
    return rep;
}

} // namespace perfbench
