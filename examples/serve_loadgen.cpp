/**
 * @file
 * Load-generator client for a REAPER-NET daemon (serve_daemon
 * --listen).
 *
 * Drives the zipfian serve::Workload over N real TCP connections with
 * configurable pipelining (net/loadgen.h) and reports over-the-wire
 * throughput and batch round-trip latency percentiles. Profile keys
 * come from the daemon's ListKeys advertisement, so pointing this at
 * a live daemon is the whole configuration.
 *
 * Exits nonzero when the run was not clean: any protocol error, any
 * connection-level failure, or any request left unanswered.
 *
 * Usage: serve_loadgen --connect HOST:PORT [options]
 *   --connect H:P     daemon address (required)
 *   --connections N   concurrent TCP connections (default 4)
 *   --pipeline N      frames in flight per connection (default 4)
 *   --batch N         requests per frame (default 64)
 *   --queries N       total requests across connections
 *                     (default 100000)
 *   --zipf S          zipf exponent over keys (default 0.99)
 *   --unknown-frac R  fraction of queries for absent keys
 *                     (default 0.01)
 *   --seed S          workload seed (default 42)
 *   --json            print the result as JSON instead of text
 */

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "net/loadgen.h"

using namespace reaper;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0 << " --connect HOST:PORT "
              << "[options]\n"
              << "  --connections N   TCP connections (default 4)\n"
              << "  --pipeline N      frames in flight per connection "
                 "(default 4)\n"
              << "  --batch N         requests per frame (default "
                 "64)\n"
              << "  --queries N       total requests (default "
                 "100000)\n"
              << "  --zipf S          zipf exponent (default 0.99)\n"
              << "  --unknown-frac R  absent-key fraction (default "
                 "0.01)\n"
              << "  --seed S          workload seed (default 42)\n"
              << "  --json            JSON output\n";
    std::exit(2);
}

std::string
resultJson(const net::LoadgenConfig &cfg,
           const net::LoadgenResult &r)
{
    std::ostringstream os;
    os << "{\"connections\": " << cfg.connections
       << ", \"pipeline\": " << cfg.pipeline
       << ", \"batch\": " << cfg.batch
       << ", \"sent\": " << r.sent
       << ", \"seconds\": " << r.seconds
       << ", \"qps\": " << r.qps
       << ", \"ok\": " << r.ok
       << ", \"not_found\": " << r.notFound
       << ", \"rejected\": " << r.rejected
       << ", \"unanswered\": " << r.unanswered
       << ", \"protocol_errors\": " << r.protocolErrors
       << ", \"p50_us\": " << r.p50Us
       << ", \"p95_us\": " << r.p95Us
       << ", \"p99_us\": " << r.p99Us << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    net::LoadgenConfig cfg;
    cfg.connections = 4;
    cfg.workload.unknownFraction = 0.01;
    bool json = false;
    bool connected = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--connect") {
            std::string spec = next();
            size_t colon = spec.rfind(':');
            if (colon == std::string::npos)
                usage(argv[0]);
            cfg.host = spec.substr(0, colon);
            cfg.port = static_cast<uint16_t>(
                std::stoul(spec.substr(colon + 1)));
            connected = true;
        } else if (arg == "--connections")
            cfg.connections =
                static_cast<unsigned>(std::stoul(next()));
        else if (arg == "--pipeline")
            cfg.pipeline = static_cast<unsigned>(std::stoul(next()));
        else if (arg == "--batch")
            cfg.batch = std::stoull(next());
        else if (arg == "--queries")
            cfg.totalRequests = std::stoull(next());
        else if (arg == "--zipf")
            cfg.workload.zipfExponent = std::stod(next());
        else if (arg == "--unknown-frac")
            cfg.workload.unknownFraction = std::stod(next());
        else if (arg == "--seed")
            cfg.seed = std::stoull(next());
        else if (arg == "--json")
            json = true;
        else
            usage(argv[0]);
    }
    if (!connected)
        usage(argv[0]);

    auto result = net::runLoadgen(cfg);
    if (!result) {
        std::cerr << "serve_loadgen: " << result.error().describe()
                  << "\n";
        return 1;
    }
    const net::LoadgenResult &r = result.value();

    if (json) {
        std::cout << resultJson(cfg, r) << "\n";
    } else {
        std::cout << "Sent " << r.sent << " requests over "
                  << cfg.connections << " connections in "
                  << r.seconds << " s\n"
                  << "  qps: "
                  << static_cast<uint64_t>(r.qps) << "\n"
                  << "  ok: " << r.ok << "  not-found: "
                  << r.notFound << "  rejected: " << r.rejected
                  << "  unanswered: " << r.unanswered << "\n"
                  << "  batch RTT: p50 " << r.p50Us << " us, p95 "
                  << r.p95Us << " us, p99 " << r.p99Us << " us\n";
    }
    for (const std::string &err : r.errors)
        std::cerr << "serve_loadgen: connection error: " << err
                  << "\n";
    if (!r.clean()) {
        std::cerr << "serve_loadgen: run was NOT clean ("
                  << r.protocolErrors << " protocol errors, "
                  << r.unanswered << " unanswered, "
                  << r.errors.size() << " connection failures)\n";
        return 1;
    }
    return 0;
}
