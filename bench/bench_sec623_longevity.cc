/**
 * @file
 * Section 6.2.3 profile-longevity example: a 2 GB DRAM with SECDED at
 * a 1024 ms target interval and 45 C tolerates N failures; with 99%
 * profiling coverage (C missed cells) and the measured VRT
 * accumulation rate A, the profile stays valid T = (N - C) / A.
 * The paper's worked numbers: N = 65, C = 25, A = 0.73/h -> 2.3 days.
 */

#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "dram/retention_model.h"
#include "dram/vendor_model.h"
#include "ecc/longevity.h"
#include "ecc/uber.h"
#include "eval/fleet.h"

using namespace reaper;

int
main()
{
    bench::benchHeader("Section 6.2.3 - profile longevity",
                       "Eq. 7 worked example");

    uint64_t bits_2gb = 16ull * 1024 * 1024 * 1024;
    dram::RetentionModel model{dram::vendorParams(dram::Vendor::B)};
    double ber = model.berAt(1.024, 45.0);
    double accum = model.vrtCumulativeRate(1.024, bits_2gb) * 3600.0;

    std::cout << "Inputs (2 GB, 1024 ms, 45 C):\n"
              << "  expected failing cells: "
              << fmtF(ber * static_cast<double>(bits_2gb), 0)
              << " (paper: 2464)\n"
              << "  VRT accumulation A: " << fmtF(accum, 2)
              << " cells/hour (paper: 0.73)\n\n";

    // The eight (ECC config, coverage) scenarios are independent; run
    // them as one fleet and print the ordered results.
    std::vector<ecc::EccConfig> cfgs = {ecc::EccConfig::secded(),
                                        ecc::EccConfig{1, 144}};
    std::vector<double> coverages = {0.90, 0.95, 0.99, 1.0};
    auto results = eval::runFleet(
        cfgs.size() * coverages.size(), [&](size_t i) {
            ecc::LongevityScenario s;
            s.capacityBits = bits_2gb;
            s.eccStrength = cfgs[i / coverages.size()];
            s.targetUber = ecc::kConsumerUber;
            s.berAtTarget = ber;
            s.profilingCoverage = coverages[i % coverages.size()];
            s.accumulationPerHour = accum;
            return ecc::computeLongevity(s);
        });

    TablePrinter table({"ECC word", "coverage", "N tolerable",
                        "C missed", "longevity T"});
    for (size_t i = 0; i < results.size(); ++i) {
        const ecc::LongevityResult &r = results[i];
        table.addRow(
            {"SECDED w=" +
                 std::to_string(cfgs[i / coverages.size()].wordBits),
             fmtPct(coverages[i % coverages.size()], 0),
             fmtF(r.tolerableFailures, 1), fmtF(r.missedFailures, 1),
             r.longevity > 0 ? fmtTime(r.longevity) : "insufficient"});
    }
    table.print(std::cout);

    std::cout << "\nPaper anchor: SECDED (their word size, N = 65.3), "
                 "99% coverage -> T = 2.3 days;\n"
                 "the w=144 row at 99% coverage reproduces it.\n";
    return 0;
}
