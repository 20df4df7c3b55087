/**
 * @file
 * perfbench: the repository benchmark binary.
 *
 *   perfbench --workload reprofile|serve_hot|serve_churn|fig13_sim
 *             --seed N --seconds S --trace 0|1 --work-dir DIR
 *             [--span-file PATH]
 *
 * Prints one "metric" line per measurement and, last, the result JSON;
 * exits 1 after printing it when a correctness gate failed.
 * Normally run through perfbench/run.py, which builds this binary,
 * sets REAPER_OBS (off for --trace 0, counters for --trace 1) and
 * keeps exactly the metrics BENCHMARK.json declares.
 */

#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "ledger.h"
#include "workloads.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace perfbench {

double
nowSeconds()
{
    return static_cast<double>(nowNs()) / 1e9;
}

} // namespace perfbench

namespace {

[[noreturn]] void
usage()
{
    std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--span-file PATH]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    RunContext ctx;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        std::string val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            ctx.seed = std::stoull(val);
        else if (arg == "--seconds")
            ctx.seconds = std::stod(val);
        else if (arg == "--trace")
            ctx.trace = val == "1";
        else if (arg == "--work-dir")
            ctx.workDir = val;
        else if (arg == "--span-file")
            ctx.spanFile = val;
        else
            usage();
    }
    if (workload.empty() || ctx.workDir.empty() || ctx.seconds <= 0)
        usage();
    Fingerprint fp = hostFingerprint();
    ctx.nproc = fp.nproc;

    fs::remove_all(ctx.workDir);
    fs::create_directories(ctx.workDir);
    Report report;
    try {
        if (workload == "reprofile")
            report = runReprofile(ctx);
        else if (workload == "serve_hot")
            report = runServe(ctx, false);
        else if (workload == "serve_churn")
            report = runServe(ctx, true);
        else if (workload == "fig13_sim")
            report = runFig13(ctx);
        else
            usage();
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << workload << ": " << e.what() << "\n";
        fs::remove_all(ctx.workDir);
        return 1;
    }
    fs::remove_all(ctx.workDir);

    if (ctx.trace && !ctx.spanFile.empty() &&
        !Ledger::global().writeJsonl(ctx.spanFile)) {
        std::cerr << "perfbench: cannot write " << ctx.spanFile << "\n";
        return 1;
    }
    report.print(workload, fp);
    return report.correct ? 0 : 1;
}
