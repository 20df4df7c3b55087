/**
 * @file
 * Campaign runner CLI: a checkpointed, fault-tolerant multi-chip
 * profiling campaign on top of campaign::runCampaign.
 *
 * Runs (or resumes) a REAPER-style campaign — a fleet of simulated
 * chips, each profiled under a brute-force round at target conditions
 * and a reach round at aggressive conditions — committing every
 * completed (chip, round) profile to the persistent store under the
 * campaign directory. Re-running the same invocation is a no-op;
 * killing it mid-run and re-running resumes from the journal and
 * converges to byte-identical store contents.
 *
 * Usage: campaign_runner [options]
 *   --dir PATH          campaign directory (default: REAPER_CAMPAIGN_DIR
 *                       or ./reaper_campaign)
 *   --chips N           fleet size (default 8)
 *   --rounds N          profiling rounds per chip, alternating
 *                       brute-force/reach targets (default 2)
 *   --iterations N      profiling iterations per round (default 4)
 *   --seed S            campaign base seed (default 1)
 *   --threads N         fleet worker threads (default: hardware)
 *   --fault-rate R      per-command transient-fault rate (default 0)
 *   --fault-seed S      fault-schedule seed (default 1)
 *   --max-attempts N    attempts per round; 1 disables retries
 *                       (default 3)
 *   --interrupt-after N stop after N commits (simulated kill)
 *   --profiler NAME     use one registered profiler for every round
 *                       (see profiling::profilerNames()) instead of
 *                       the default brute-force/reach alternation
 *   --profile-format F  store profile format: v2|binary (default) or
 *                       v1|text; existing files in either format keep
 *                       loading on resume
 *   --obs-dump PATH     write Chrome trace (PATH) + Prometheus text
 *                       (PATH.prom) at exit; pair with REAPER_OBS=
 *                       counters|trace
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "campaign/campaign.h"
#include "campaign/error.h"
#include "campaign/profile_store.h"
#include "common/table.h"
#include "common/units.h"
#include "disturb/rowhammer_profiler.h"
#include "obs/obs.h"
#include "profiling/profile_binary.h"
#include "profiling/profiler.h"

using namespace reaper;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " [options]\n"
        << "  --dir PATH          campaign directory (default:\n"
        << "                      $REAPER_CAMPAIGN_DIR or "
           "./reaper_campaign)\n"
        << "  --chips N           fleet size (default 8)\n"
        << "  --rounds N          rounds per chip (default 2)\n"
        << "  --iterations N      iterations per round (default 4)\n"
        << "  --seed S            campaign base seed (default 1)\n"
        << "  --threads N         fleet worker threads\n"
        << "  --fault-rate R      per-command fault rate (default 0)\n"
        << "  --fault-seed S      fault-schedule seed (default 1)\n"
        << "  --max-attempts N    attempts per round (default 3)\n"
        << "  --interrupt-after N stop after N commits (simulated "
           "kill)\n"
        << "  --profiler NAME     one profiler for every round "
           "(registered: ";
    bool first = true;
    for (const std::string &name : profiling::profilerNames()) {
        std::cerr << (first ? "" : ", ") << name;
        first = false;
    }
    std::cerr << ")\n"
              << "  --profile-format F  v2|binary (default) or "
                 "v1|text\n"
              << "  --obs-dump PATH     write Chrome trace + "
                 "PATH.prom at exit\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir = campaign::defaultCampaignDir("reaper_campaign");
    size_t chips = 8, rounds = 2, interrupt_after = 0;
    int iterations = 4, max_attempts = 3;
    uint64_t seed = 1, fault_seed = 1;
    unsigned threads = 0;
    double fault_rate = 0.0;
    std::string profiler_name, obs_dump;
    profiling::ProfileFormat profile_format =
        profiling::ProfileFormat::BinaryV2;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--dir")
            dir = next();
        else if (arg == "--chips")
            chips = std::stoul(next());
        else if (arg == "--rounds")
            rounds = std::stoul(next());
        else if (arg == "--iterations")
            iterations = std::stoi(next());
        else if (arg == "--seed")
            seed = std::stoull(next());
        else if (arg == "--threads")
            threads = static_cast<unsigned>(std::stoul(next()));
        else if (arg == "--fault-rate")
            fault_rate = std::stod(next());
        else if (arg == "--fault-seed")
            fault_seed = std::stoull(next());
        else if (arg == "--max-attempts")
            max_attempts = std::stoi(next());
        else if (arg == "--interrupt-after")
            interrupt_after = std::stoul(next());
        else if (arg == "--profiler")
            profiler_name = next();
        else if (arg == "--profile-format") {
            common::Expected<profiling::ProfileFormat> parsed =
                profiling::parseProfileFormat(next());
            if (!parsed) {
                std::cerr << parsed.error().describe() << "\n";
                usage(argv[0]);
            }
            profile_format = parsed.value();
        } else if (arg == "--obs-dump")
            obs_dump = next();
        else
            usage(argv[0]);
    }

    // Fail fast on an unknown --profiler, listing what IS registered,
    // instead of surfacing a generic campaign error mid-run.
    if (!profiler_name.empty()) {
        common::Expected<std::unique_ptr<profiling::Profiler>> probe =
            profiling::makeProfiler(profiler_name);
        if (!probe) {
            std::cerr << "campaign_runner: unknown profiler '"
                      << profiler_name << "'\nregistered profilers:";
            for (const std::string &name : profiling::profilerNames())
                std::cerr << " " << name;
            std::cerr << "\n";
            return 2;
        }
    }

    // Dump on every exit path (including the simulated-kill one).
    struct ObsDump
    {
        std::string path;
        ~ObsDump()
        {
            if (!path.empty())
                obs::dumpTo(path);
        }
    } obs_dump_guard{obs_dump};

    campaign::CampaignConfig cfg;
    cfg.dir = dir;
    cfg.name = "campaign-runner";
    cfg.baseSeed = seed;
    cfg.chips = campaign::makeChipFleet(chips, seed,
                                        1ull << 28 /* 32 MB */,
                                        {2.4, 52.0});
    for (size_t r = 0; r < rounds; ++r) {
        campaign::RoundSpec spec;
        spec.iterations = iterations;
        spec.target = {msToSec(1024.0 + 512.0 * r), 45.0};
        if (!profiler_name.empty()) {
            spec.profilerName = profiler_name;
            if (profiler_name == "reach")
                spec.reachDeltaRefresh = 0.250;
        } else if (r % 2 == 0) {
            spec.profiler = campaign::ProfilerKind::BruteForce;
        } else {
            spec.profiler = campaign::ProfilerKind::Reach;
            spec.reachDeltaRefresh = 0.250;
        }
        cfg.rounds.push_back(spec);
    }
    cfg.host.useChamber = false;
    cfg.faults.seed = fault_seed;
    cfg.faults.commandTimeoutRate = fault_rate;
    cfg.faults.settleFailureRate = fault_rate;
    cfg.faults.readCorruptionRate = fault_rate;
    cfg.retry.maxAttempts = max_attempts;
    cfg.fleet.threads = threads;
    cfg.profileFormat = profile_format;
    cfg.interruptAfter = interrupt_after;

    std::cout << "Campaign: " << chips << " chips x " << rounds
              << " rounds -> " << dir << "\n";

    campaign::CampaignStats stats;
    try {
        stats = campaign::runCampaign(cfg);
    } catch (const campaign::CampaignError &e) {
        std::cerr << "campaign failed: " << e.what() << "\n";
        return 1;
    }

    std::cout << "Rounds completed: " << stats.roundsCompleted << "/"
              << stats.tasksTotal << " (" << stats.roundsResumed
              << " resumed from journal, " << stats.roundsThisRun
              << " run now)\n";
    if (stats.faults.total() > 0 || stats.retries > 0)
        std::cout << "Faults survived: " << stats.faults.total()
                  << " (" << stats.faults.commandTimeouts
                  << " timeouts, " << stats.faults.settleFailures
                  << " settle failures, "
                  << stats.faults.readCorruptions
                  << " read corruptions) across " << stats.retries
                  << " retries, " << fmtTime(stats.backoffTime)
                  << " virtual backoff\n";
    if (stats.interrupted) {
        std::cout << "Interrupted after " << stats.roundsThisRun
                  << " commits; re-run to resume.\n";
        return 0;
    }

    campaign::ProfileStore store(dir + "/store");
    std::cout << "\nProfile store (" << store.entries().size()
              << " profiles):\n";
    for (const auto &entry : store.entries())
        std::cout << "  " << entry.key << "  " << entry.cells
                  << " cells\n";
    return 0;
}
