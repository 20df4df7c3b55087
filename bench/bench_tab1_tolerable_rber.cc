/**
 * @file
 * Table 1: tolerable RBER and tolerable number of bit errors for
 * UBER = 1e-15 across ECC strengths and DRAM sizes.
 *
 * We print both the strict Eq. 6 evaluation at the stated word sizes
 * (no ECC: w=64; SECDED: w=72; ECC-2: w=80) and the wider-word variant
 * (w=144) that reproduces the paper's printed SECDED value of 3.8e-9
 * (see DESIGN.md, known deviations).
 */

#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "common/units.h"
#include "ecc/uber.h"

using namespace reaper;

int
main()
{
    bench::benchHeader("Table 1 - tolerable RBER vs ECC strength",
                       "Section 6.2.2, Table 1");

    struct Column
    {
        std::string name;
        ecc::EccConfig cfg;
        double paper; ///< the value Table 1 prints (0 = not printed)
    };
    std::vector<Column> columns = {
        {"No ECC (w=64)", ecc::EccConfig::none(), 1.0e-15},
        {"SECDED (w=72)", ecc::EccConfig::secded(), 0},
        {"SECDED (w=144)", {1, 144}, 3.8e-9},
        {"ECC-2 (w=80)", ecc::EccConfig::ecc2(), 0},
        {"ECC-2 (w=144)", {2, 144}, 6.9e-7},
    };

    TablePrinter rber({"ECC strength", "tolerable RBER (ours)",
                       "paper Table 1"});
    for (const auto &c : columns) {
        double r = ecc::tolerableRber(ecc::kConsumerUber, c.cfg);
        rber.addRow({c.name, fmtG(r, 3),
                     c.paper > 0 ? fmtG(c.paper, 3) : "-"});
    }
    rber.print(std::cout);

    std::cout << "\nTolerable number of bit errors (UBER = 1e-15):\n";
    std::vector<std::pair<std::string, uint64_t>> sizes = {
        {"512MB", 512ull << 20}, {"1GB", 1ull << 30},
        {"2GB", 2ull << 30},     {"4GB", 4ull << 30},
        {"8GB", 8ull << 30},
    };
    TablePrinter errors({"DRAM size", "No ECC", "SECDED(72)",
                         "SECDED(144)", "ECC-2(80)"});
    for (const auto &[name, bytes] : sizes) {
        uint64_t bits = bytesToBits(bytes);
        errors.addRow(
            {name,
             fmtG(ecc::tolerableBitErrors(ecc::kConsumerUber,
                                          ecc::EccConfig::none(), bits),
                  3),
             fmtG(ecc::tolerableBitErrors(ecc::kConsumerUber,
                                          ecc::EccConfig::secded(),
                                          bits),
                  3),
             fmtG(ecc::tolerableBitErrors(ecc::kConsumerUber,
                                          ecc::EccConfig{1, 144}, bits),
                  3),
             fmtG(ecc::tolerableBitErrors(ecc::kConsumerUber,
                                          ecc::EccConfig::ecc2(), bits),
                  3)});
    }
    errors.print(std::cout);

    std::cout << "\nPaper anchors: 512MB/SECDED = 16.3 errors "
                 "(w=144 column), 2GB/SECDED = 65.3, "
                 "4GB no-ECC = 3.4e-6.\n";
    return 0;
}
