/**
 * @file
 * Campaign-orchestration bench: throughput and robustness of the
 * checkpointed multi-chip profiling campaign subsystem.
 *
 * Three phases over the same campaign definition:
 *  1. reference — uninterrupted, fault-free run (times the steady
 *     state: chips/sec, rounds/sec);
 *  2. kill + resume — the campaign is interrupted after a third of
 *     its rounds and resumed, which must reproduce the reference
 *     profile store byte-for-byte;
 *  3. fault injection — transient host faults at a nonzero rate with
 *     retries enabled; the campaign must converge to the reference
 *     store while the retry counters track the injected schedule.
 *
 * Emits BENCH_campaign.json (chips/sec, rounds resumed, retries,
 * faults survived, bit-identity checks) in the working directory.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "bench_util.h"
#include "campaign/campaign.h"
#include "common/table.h"
#include "common/units.h"

namespace fs = std::filesystem;
using namespace reaper;

namespace {

std::map<std::string, std::string>
storeContents(const std::string &campaign_dir)
{
    std::map<std::string, std::string> out;
    for (const auto &entry :
         fs::directory_iterator(campaign_dir + "/store")) {
        std::ifstream is(entry.path(), std::ios::binary);
        std::ostringstream ss;
        ss << is.rdbuf();
        out[entry.path().filename().string()] = ss.str();
    }
    return out;
}

campaign::CampaignConfig
benchCampaign(const std::string &dir, int chips, int iterations)
{
    campaign::CampaignConfig cfg;
    cfg.dir = dir;
    cfg.name = "bench-campaign";
    cfg.baseSeed = 2024;
    cfg.chips = campaign::makeChipFleet(
        static_cast<size_t>(chips), cfg.baseSeed,
        1ull << 28 /* 32 MB */, {2.4, 52.0});
    campaign::RoundSpec brute;
    brute.target = {msToSec(1024.0), 45.0};
    brute.profiler = campaign::ProfilerKind::BruteForce;
    brute.iterations = iterations;
    campaign::RoundSpec reach;
    reach.target = {msToSec(1024.0), 45.0};
    reach.profiler = campaign::ProfilerKind::Reach;
    reach.reachDeltaRefresh = 0.250;
    reach.iterations = std::max(1, iterations / 2);
    // Distinct target conditions per round so both profiles persist.
    reach.target.refreshInterval = msToSec(1536.0);
    cfg.rounds = {brute, reach};
    cfg.host.useChamber = false;
    return cfg;
}

double
timedRun(campaign::CampaignConfig &cfg, campaign::CampaignStats *stats)
{
    auto start = std::chrono::steady_clock::now();
    *stats = campaign::runCampaign(cfg);
    auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

} // namespace

int
main()
{
    bench::benchHeader("Campaign orchestration bench",
                       "campaign subsystem (BENCH_campaign.json)");

    const int chips = bench::scaled(12, 4);
    const int iterations = bench::scaled(4, 2);
    const std::string workdir = "BENCH_campaign.workdir";
    fs::remove_all(workdir);

    // Phase 1: uninterrupted reference.
    campaign::CampaignConfig ref =
        benchCampaign(workdir + "/reference", chips, iterations);
    campaign::CampaignStats ref_stats;
    double ref_seconds = timedRun(ref, &ref_stats);
    auto want = storeContents(ref.dir);
    double chips_per_sec = chips / ref_seconds;
    double rounds_per_sec = ref_stats.roundsCompleted / ref_seconds;

    // Phase 2: kill after a third of the rounds, then resume.
    campaign::CampaignConfig killed =
        benchCampaign(workdir + "/resume", chips, iterations);
    // Kill at 1 thread so the interruption point is deterministic (at
    // N threads every task may already be in flight, and in-flight
    // rounds commit); the resume leg runs at the bench thread count.
    killed.interruptAfter = ref_stats.tasksTotal / 3;
    killed.fleet.threads = 1;
    campaign::CampaignStats kill_stats;
    timedRun(killed, &kill_stats);
    killed.interruptAfter = 0;
    killed.fleet.threads = 0;
    campaign::CampaignStats resume_stats;
    double resume_seconds = timedRun(killed, &resume_stats);
    bool resume_identical = storeContents(killed.dir) == want;

    // Phase 3: fault injection with retries.
    campaign::CampaignConfig faulty =
        benchCampaign(workdir + "/faulty", chips, iterations);
    faulty.faults.seed = 99;
    faulty.faults.commandTimeoutRate = 0.001;
    faulty.faults.settleFailureRate = 0.05;
    faulty.faults.readCorruptionRate = 0.005;
    faulty.retry.maxAttempts = 25;
    campaign::CampaignStats fault_stats;
    double fault_seconds = timedRun(faulty, &fault_stats);
    bool fault_identical = storeContents(faulty.dir) == want;

    TablePrinter table({"phase", "wall time", "rounds", "resumed",
                        "retries", "faults", "store == ref"});
    table.addRow({"reference", fmtF(ref_seconds, 2) + "s",
                  std::to_string(ref_stats.roundsCompleted), "0", "0",
                  "0", "-"});
    table.addRow({"kill+resume",
                  fmtF(resume_seconds, 2) + "s",
                  std::to_string(resume_stats.roundsCompleted),
                  std::to_string(resume_stats.roundsResumed), "0", "0",
                  resume_identical ? "yes" : "NO"});
    table.addRow({"fault-injected", fmtF(fault_seconds, 2) + "s",
                  std::to_string(fault_stats.roundsCompleted), "0",
                  std::to_string(fault_stats.retries),
                  std::to_string(fault_stats.faults.total()),
                  fault_identical ? "yes" : "NO"});
    table.print(std::cout);
    std::cout << "\nThroughput: " << fmtF(chips_per_sec, 2)
              << " chips/sec (" << fmtF(rounds_per_sec, 2)
              << " rounds/sec) at " << bench::benchThreads()
              << " fleet threads\n";

    bool ok = resume_identical && fault_identical &&
              resume_stats.complete() && fault_stats.complete() &&
              fault_stats.retries == fault_stats.faults.total();

    std::ofstream json("BENCH_campaign.json");
    json << "{\n"
         << "  \"bench\": \"campaign\",\n"
         << "  \"quick_mode\": "
         << (bench::quickMode() ? "true" : "false") << ",\n"
         << "  \"fleet_threads\": " << bench::benchThreads() << ",\n"
         << "  \"chips\": " << chips << ",\n"
         << "  \"rounds_per_chip\": 2,\n"
         << "  \"chips_per_sec\": " << chips_per_sec << ",\n"
         << "  \"rounds_per_sec\": " << rounds_per_sec << ",\n"
         << "  \"resume\": {\n"
         << "    \"rounds_before_kill\": "
         << kill_stats.roundsCompleted << ",\n"
         << "    \"rounds_resumed\": " << resume_stats.roundsResumed
         << ",\n"
         << "    \"store_bit_identical\": "
         << (resume_identical ? "true" : "false") << "\n"
         << "  },\n"
         << "  \"faults\": {\n"
         << "    \"injected_total\": " << fault_stats.faults.total()
         << ",\n"
         << "    \"command_timeouts\": "
         << fault_stats.faults.commandTimeouts << ",\n"
         << "    \"settle_failures\": "
         << fault_stats.faults.settleFailures << ",\n"
         << "    \"read_corruptions\": "
         << fault_stats.faults.readCorruptions << ",\n"
         << "    \"retries\": " << fault_stats.retries << ",\n"
         << "    \"attempts\": " << fault_stats.attempts << ",\n"
         << "    \"virtual_backoff_seconds\": "
         << fault_stats.backoffTime << ",\n"
         << "    \"store_bit_identical\": "
         << (fault_identical ? "true" : "false") << "\n"
         << "  },\n"
         << "  \"ok\": " << (ok ? "true" : "false") << "\n"
         << "}\n";
    std::cout << "Wrote BENCH_campaign.json\n";

    fs::remove_all(workdir);
    return ok ? 0 : 1;
}
