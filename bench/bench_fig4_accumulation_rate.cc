/**
 * @file
 * Fig. 4: steady-state new-failure accumulation rate vs refresh
 * interval for the three vendors at 45 C, with power-law fits
 * y = a * x^b overlaid.
 *
 * Methodology: profiling rounds repeated hourly over a long window at
 * each interval. Raw new-cell discovery mixes two populations: VRT
 * arrivals (the Fig. 4 quantity) and the slow trickle of
 * inconsistently-failing static cells being found by luck (the
 * paper's "cells missed by profiling"). A control run on the same
 * chip with VRT arrivals disabled isolates the VRT-attributed rate.
 */

#include <iostream>
#include <set>
#include <vector>

#include "bench_util.h"
#include "common/fit.h"
#include "common/math_util.h"
#include "common/table.h"
#include "common/units.h"
#include "dram/data_pattern.h"
#include "dram/module.h"
#include "dram/retention_model.h"
#include "dram/vendor_model.h"
#include "eval/fleet.h"
#include "profiling/brute_force.h"
#include "profiling/profiler.h"
#include "testbed/softmc_host.h"

using namespace reaper;

namespace {

/** New-unique discovery rate (cells/hour, this chip) over a window. */
double
measureRawRate(dram::Vendor vendor, uint64_t seed, Seconds interval,
               uint64_t capacity, double vrt_scale, double hours)
{
    dram::ModuleConfig mc = reaper::bench::characterizationModule(
        vendor, seed, {interval + 0.3, 46.0}, capacity);
    mc.chipVariation = 0.0;
    mc.vrtRateScale = vrt_scale;
    dram::DramModule module(mc);
    testbed::SoftMcHost host(module, reaper::bench::instantHost());
    host.setAmbient(45.0);

    int rounds = static_cast<int>(hours);
    int warmup = rounds / 4;
    std::set<dram::ChipFailure> seen;
    double steady_new = 0;
    double steady_hours = 0;
    for (int round = 0; round < rounds; ++round) {
        Seconds start = host.now();
        profiling::BruteForceConfig cfg;
        cfg.test = {interval, 45.0};
        cfg.iterations = 2;
        cfg.patterns = dram::basePatterns();
        cfg.setTemperature = false;
        profiling::ProfilingResult r =
            profiling::BruteForceProfiler{}.run(host, cfg);
        size_t fresh = 0;
        for (const auto &f : r.profile.cells())
            fresh += seen.insert(f).second ? 1 : 0;
        Seconds used = host.now() - start;
        if (used < hoursToSec(1.0))
            host.wait(hoursToSec(1.0) - used);
        if (round >= warmup) {
            steady_new += static_cast<double>(fresh);
            steady_hours += 1.0;
        }
    }
    return steady_new / steady_hours;
}

} // namespace

int
main()
{
    reaper::bench::benchHeader(
        "Fig. 4 - steady-state accumulation rate vs interval",
        "Section 5.3; anchors: 0.73/h @ 1024 ms, ~180/h @ 2048 ms "
        "(per 2 GB, vendor B)");

    std::vector<Seconds> intervals = {1.024, 1.536, 2.048, 2.560};
    uint64_t capacity = reaper::bench::quickMode()
                            ? 4ull * 1024 * 1024 * 1024  // 512 MB
                            : 8ull * 1024 * 1024 * 1024; // 1 GB
    double to_2gb = dram::kBitsPer2GB / static_cast<double>(capacity);

    // Every (vendor, interval, raw-vs-control) measurement is an
    // independent long chip timeline: flatten them into one fleet. Job
    // order (and hence every table) is fixed regardless of thread
    // count.
    struct Job
    {
        dram::Vendor vendor;
        Seconds interval;
        double vrtScale; ///< 1 = raw run, 0 = no-VRT control run
        double hours;
        double expect; ///< closed-form VRT rate (cells/h, this chip)
    };
    std::vector<dram::Vendor> vendors = {
        dram::Vendor::A, dram::Vendor::B, dram::Vendor::C};
    std::vector<Job> jobs;
    for (dram::Vendor vendor : vendors) {
        dram::RetentionModel model{dram::vendorParams(vendor)};
        for (Seconds t : intervals) {
            // Longer windows at short intervals, where the VRT rate is
            // a fraction of a cell per hour.
            double expect =
                model.vrtCumulativeRate(
                    t, static_cast<uint64_t>(capacity)) *
                3600.0;
            double hours = clampTo(250.0 / std::max(expect, 0.05),
                                   36.0, 600.0);
            if (reaper::bench::quickMode())
                hours = std::min(hours, 60.0);
            jobs.push_back({vendor, t, 1.0, hours, expect});
            jobs.push_back({vendor, t, 0.0, hours, expect});
        }
    }

    auto rates = eval::runFleet(jobs.size(), [&](size_t i) {
        const Job &job = jobs[i];
        uint64_t seed = 40 + static_cast<uint64_t>(job.vendor);
        return measureRawRate(job.vendor, seed, job.interval, capacity,
                              job.vrtScale, job.hours);
    });

    size_t ji = 0;
    for (dram::Vendor vendor : vendors) {
        std::vector<double> xs, ys;
        TablePrinter table({"tREFI", "raw rate", "control (no VRT)",
                            "VRT rate (/h per 2GB)", "model"});
        for (Seconds t : intervals) {
            double expect = jobs[ji].expect;
            double raw = rates[ji++];
            double control = rates[ji++];
            double vrt = std::max(raw - control, 0.0) * to_2gb;
            table.addRow({fmtTime(t), fmtF(raw * to_2gb, 2),
                          fmtF(control * to_2gb, 2), fmtF(vrt, 2),
                          fmtF(expect * to_2gb, 2)});
            if (vrt > 0) {
                xs.push_back(t);
                ys.push_back(vrt);
            }
        }
        std::cout << "Vendor " << dram::toString(vendor) << ":\n";
        table.print(std::cout);
        if (xs.size() >= 2) {
            PowerLawFit fit = powerLawFit(xs, ys);
            std::cout << "  VRT-rate fit: y = " << fmtG(fit.a, 3)
                      << " * x^" << fmtF(fit.b, 2)
                      << "  (R^2 = " << fmtF(fit.r2, 3)
                      << "); model exponent "
                      << fmtF(dram::vendorParams(vendor).vrtExponent, 1)
                      << " up to the "
                      << fmtTime(dram::vendorParams(vendor).vrtKnee)
                      << " knee\n\n";
        }
    }
    std::cout << "Shape check: the VRT-attributed rate grows "
                 "polynomially with a large vendor-dependent exponent "
                 "(Fig. 4's fits).\n";
    return 0;
}
