#include "host.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <sys/resource.h>
#include <thread>

#include "obs/obs.h"
#include "simd/dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string
Fingerprint::json() const
{
    std::ostringstream os;
    os << "{\"nproc\": " << nproc << ", \"simd\": \"" << simd
       << "\", \"build_type\": \"" << buildType << "\", \"obs_mode\": \""
       << obsMode << "\"}";
    return os.str();
}

Fingerprint
hostFingerprint()
{
    Fingerprint fp;
    fp.nproc = std::max(1u, std::thread::hardware_concurrency());
    fp.simd = reaper::simd::toString(reaper::simd::activeLevel());
    fp.buildType = PERFBENCH_BUILD_TYPE;
    fp.obsMode = reaper::obs::toString(reaper::obs::mode());
    return fp;
}

double
obsCounter(const char *name)
{
    return static_cast<double>(
        reaper::obs::MetricRegistry::global().counter(name).value());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

uint64_t
fnv1a(const void *data, size_t len, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
dirDigest(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.is_regular_file())
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    uint64_t h = fnv1a("", 0);
    for (const fs::path &f : files) {
        std::string name = f.filename().string();
        h = fnv1a(name.data(), name.size() + 1, h);
        std::ifstream is(f, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
        h = fnv1a(bytes.data(), bytes.size(), h);
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
Report::add(const std::string &name, double value, const std::string &unit,
            uint64_t samples, const std::string &note)
{
    metrics.push_back({name, value, unit, samples, note});
}

void
Report::fail(const std::string &why)
{
    correct = false;
    problems.push_back(why);
}

namespace {

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Report::print(const std::string &workload, const Fingerprint &fp) const
{
    std::cout << "workload " << workload << "\n"
              << "fingerprint " << fp.json() << "\n";
    for (const std::string &p : problems)
        std::cout << "FAILED GATE: " << p << "\n";
    for (const Metric &m : metrics) {
        std::cout << "metric " << m.name << " = " << number(m.value) << " "
                  << m.unit;
        if (m.samples)
            std::cout << " (n=" << m.samples << ")";
        if (!m.note.empty())
            std::cout << " [" << m.note << "]";
        std::cout << "\n";
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::cout << (i ? ", " : "") << "\"" << m.name
                  << "\": {\"value\": " << number(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

} // namespace perfbench
