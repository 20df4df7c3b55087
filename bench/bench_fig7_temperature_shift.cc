/**
 * @file
 * Fig. 7: distributions of individual cells' fitted normal-CDF
 * parameters (mu, sigma) across temperatures. Both distributions
 * shift left with increasing temperature: cells fail at shorter
 * intervals AND their failure CDFs narrow - the basis for
 * temperature-reach profiling (Corollary 4).
 *
 * Methodology: the SAME physical chip is characterized at each
 * temperature (per-cell CDF fits as in Fig. 6); cells fit at both
 * 40 C and the higher temperature are matched by address so the shift
 * is measured per cell, avoiding the selection bias of a fixed test
 * grid.
 */

#include <iostream>
#include <map>
#include <vector>

#include "bench_util.h"
#include "common/fit.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "dram/data_pattern.h"
#include "dram/module.h"
#include "dram/retention_model.h"
#include "dram/vendor_model.h"
#include "eval/fleet.h"
#include "testbed/softmc_host.h"

using namespace reaper;

namespace {

struct CellFit
{
    double mu;
    double sigma;
};

std::map<uint64_t, CellFit>
fitAtTemperature(Celsius temp, uint64_t capacity, int iters)
{
    dram::ModuleConfig mc = reaper::bench::characterizationModule(
        dram::Vendor::B, 33, {2.9, 56.0}, capacity);
    mc.chipVariation = 0.0;
    dram::DramModule module(mc);
    testbed::SoftMcHost host(module, reaper::bench::instantHost());
    host.setAmbient(temp);

    // Scale the test grid with temperature: apparent retention times
    // shrink by the exposure scale, so a fixed grid would lose
    // resolution (transitions narrower than the step) at high
    // temperature.
    dram::RetentionModel model{dram::vendorParams(dram::Vendor::B)};
    double shrink = model.equivalentExposureScale(40.0) /
                    model.equivalentExposureScale(temp);
    std::vector<Seconds> grid;
    for (Seconds t = 0.3 * shrink; t <= 2.5 * shrink;
         t += 0.07 * shrink)
        grid.push_back(t);

    // Single pattern per fit: mixing patterns would overlay
    // DPD-shifted CDFs (see bench_fig6).
    std::map<uint64_t, std::vector<int>> fail_counts;
    for (size_t gi = 0; gi < grid.size(); ++gi) {
        for (int it = 0; it < iters; ++it) {
            host.writeAll(dram::DataPattern::Solid0);
            host.disableRefresh();
            host.wait(grid[gi]);
            host.enableRefresh();
            for (const auto &f : host.readAndCompareAll()) {
                auto &v = fail_counts[f.addr];
                v.resize(grid.size(), 0);
                v[gi] += 1;
            }
        }
    }

    std::map<uint64_t, CellFit> out;
    int trials = iters;
    for (const auto &[addr, counts] : fail_counts) {
        std::vector<double> x, pr;
        bool interior = false;
        for (size_t gi = 0; gi < counts.size(); ++gi) {
            double p = static_cast<double>(counts[gi]) / trials;
            x.push_back(grid[gi]);
            pr.push_back(p);
            if (p > 0.1 && p < 0.9)
                interior = true;
        }
        if (!interior)
            continue;
        NormalCdfFit fit = normalCdfFit(x, pr, trials);
        if (!fit.valid || fit.mu < grid.front() || fit.mu > grid.back())
            continue;
        out[addr] = {fit.mu, fit.sigma};
    }
    return out;
}

} // namespace

int
main()
{
    reaper::bench::benchHeader(
        "Fig. 7 - (mu, sigma) distributions vs temperature",
        "Section 5.5, Corollary 4");

    uint64_t capacity = reaper::bench::quickMode()
                            ? 512ull * 1024 * 1024       // 64 MB
                            : 1ull * 1024 * 1024 * 1024; // 128 MB
    int iters = reaper::bench::scaled(12, 6);

    // The same chip (same seed) is characterized at each temperature;
    // the four characterizations are independent fleet tasks.
    std::vector<Celsius> temps = {40.0, 45.0, 50.0, 55.0};
    auto all_fits = eval::runFleet(temps.size(), [&](size_t ti) {
        return fitAtTemperature(temps[ti], capacity, iters);
    });

    const std::map<uint64_t, CellFit> &base = all_fits.front();
    std::cout << "Reference chip at 40C: " << base.size()
              << " cells with fitted CDFs\n\n";

    TablePrinter table({"temperature", "matched cells",
                        "median mu shift", "median sigma shift"});
    table.addRow({"40C", std::to_string(base.size()), "-", "-"});
    for (size_t ti = 1; ti < temps.size(); ++ti) {
        Celsius temp = temps[ti];
        const std::map<uint64_t, CellFit> &fits = all_fits[ti];
        std::vector<double> mu_ratio, sigma_ratio;
        for (const auto &[addr, fit] : fits) {
            auto it = base.find(addr);
            if (it == base.end())
                continue;
            mu_ratio.push_back(fit.mu / it->second.mu);
            sigma_ratio.push_back(fit.sigma / it->second.sigma);
        }
        table.addRow(
            {fmtF(temp, 0) + "C", std::to_string(mu_ratio.size()),
             fmtPct(percentile(mu_ratio, 0.5) - 1.0),
             fmtPct(percentile(sigma_ratio, 0.5) - 1.0)});
    }
    table.print(std::cout);

    dram::RetentionModel model{dram::vendorParams(dram::Vendor::B)};
    double model_shift_10c =
        model.equivalentExposureScale(40.0) /
        model.equivalentExposureScale(50.0);
    std::cout << "\nShape check: per-cell retention means and CDF "
                 "spreads both shrink as temperature rises\n"
              << "(model prediction for mu: "
              << fmtPct(model_shift_10c - 1.0)
              << " per +10C; sigma shrinks further by the CDF "
                 "narrowing factor).\n";
    return 0;
}
