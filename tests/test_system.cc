/**
 * @file
 * Tests for the full-system simulator: end-to-end request flow and the
 * refresh-overhead behaviour the paper's evaluation depends on.
 */

#include <gtest/gtest.h>

#include <bit>
#include <iterator>
#include <string>

#include "sim/system.h"
#include "workload/synthetic.h"

namespace reaper {
namespace sim {
namespace {

SystemConfig
baseSystem(unsigned chip_gbit = 8, Seconds refresh = 0.064)
{
    SystemConfig cfg;
    cfg.channels = 2;
    cfg.llc.sizeBytes = 1ull * 1024 * 1024; // small LLC: misses matter
    cfg.setDram(chip_gbit, refresh);
    return cfg;
}

std::vector<Trace>
memoryHeavyTraces(int cores, uint64_t seed = 1)
{
    workload::BenchmarkSpec spec = workload::benchmarkByName("mcf");
    std::vector<Trace> traces;
    for (int i = 0; i < cores; ++i) {
        traces.push_back(workload::generateTrace(
            spec, 20000, seed + static_cast<uint64_t>(i),
            (static_cast<uint64_t>(i) + 1) << 32));
    }
    return traces;
}

TEST(System, SetDramConfiguresTimingAndRefresh)
{
    SystemConfig cfg;
    cfg.setDram(64, 1.024);
    EXPECT_EQ(cfg.ctrl.timing.tRFCab, 1600u);
    EXPECT_NEAR(cfg.ctrl.refreshWindowScale, 16.0, 1e-9);
    EXPECT_EQ(cfg.ctrl.rowsPerBank,
              gibitToBits(64) / (8ull * 2048 * 8));
    cfg.setDram(8, 0.0);
    EXPECT_EQ(cfg.ctrl.refreshWindowScale, 0.0);
}

TEST(System, RunsAndRetiresInstructions)
{
    System sys(baseSystem(), memoryHeavyTraces(2));
    sys.run(50000);
    SystemStats stats = sys.stats();
    ASSERT_EQ(stats.coreIpc.size(), 2u);
    for (double ipc : stats.coreIpc) {
        EXPECT_GT(ipc, 0.0);
        EXPECT_LE(ipc, 3.0);
    }
    EXPECT_GT(stats.channels.commands.rd, 0u);
    EXPECT_GT(stats.llc.misses, 0u);
    EXPECT_EQ(stats.memCycles, 50000u);
}

TEST(System, DeterministicAcrossRuns)
{
    auto run = []() {
        System sys(baseSystem(), memoryHeavyTraces(2, 7));
        sys.run(20000);
        return sys.stats();
    };
    SystemStats a = run();
    SystemStats b = run();
    EXPECT_EQ(a.coreInsts, b.coreInsts);
    EXPECT_EQ(a.channels.commands.rd, b.channels.commands.rd);
}

TEST(System, RefreshCommandsIssued)
{
    System sys(baseSystem(8, 0.064), memoryHeavyTraces(1));
    Cycle cycles = 200000;
    sys.run(cycles);
    // 2 channels x one REFab per tREFI.
    uint64_t expected = 2 * (cycles / lpddr4_3200(8).tREFI);
    EXPECT_NEAR(static_cast<double>(sys.stats().channels.commands.refab),
                static_cast<double>(expected), 4.0);
}

TEST(System, NoRefreshBeatsDefaultRefresh)
{
    // The core claim behind the paper: refresh costs performance.
    System with_ref(baseSystem(64, 0.064), memoryHeavyTraces(4));
    with_ref.run(200000);
    System no_ref(baseSystem(64, 0.0), memoryHeavyTraces(4));
    no_ref.run(200000);
    EXPECT_GT(no_ref.stats().ipcSum(), with_ref.stats().ipcSum());
}

TEST(System, LongerRefreshIntervalImprovesThroughput)
{
    System base(baseSystem(64, 0.064), memoryHeavyTraces(4));
    base.run(200000);
    System relaxed(baseSystem(64, 1.024), memoryHeavyTraces(4));
    relaxed.run(200000);
    EXPECT_GT(relaxed.stats().ipcSum(), base.stats().ipcSum());
}

TEST(System, RefreshHurtsMoreAtHigherDensity)
{
    // tRFC grows with density: 64 Gb chips lose more to refresh than
    // 8 Gb chips (why Fig. 13's gains grow with chip size).
    auto refresh_penalty = [](unsigned gbit) {
        System with_ref(baseSystem(gbit, 0.064), memoryHeavyTraces(4));
        with_ref.run(150000);
        System no_ref(baseSystem(gbit, 0.0), memoryHeavyTraces(4));
        no_ref.run(150000);
        return 1.0 - with_ref.stats().ipcSum() /
                         no_ref.stats().ipcSum();
    };
    double small = refresh_penalty(8);
    double large = refresh_penalty(64);
    EXPECT_GT(large, small);
    EXPECT_GT(large, 0.02); // the penalty is material at 64 Gb
}

TEST(System, CacheFriendlyWorkloadHasHighIpc)
{
    workload::BenchmarkSpec compute =
        workload::benchmarkByName("povray");
    std::vector<Trace> traces = {workload::generateTrace(
        compute, 5000, 1, 1ull << 32)};
    SystemConfig cfg = baseSystem();
    cfg.llc.sizeBytes = 8ull * 1024 * 1024; // large LLC
    System sys(cfg, traces);
    sys.run(100000);
    EXPECT_GT(sys.stats().coreIpc.at(0), 2.0);
}

TEST(System, MemoryBoundWorkloadHasLowIpc)
{
    System sys(baseSystem(), memoryHeavyTraces(1));
    sys.run(100000);
    EXPECT_LT(sys.stats().coreIpc.at(0), 1.5);
}

TEST(System, WritebacksReachDram)
{
    // A write-heavy random workload must generate DRAM write traffic
    // via LLC writebacks.
    workload::BenchmarkSpec spec = workload::benchmarkByName("mcf");
    spec.readFraction = 0.3;
    std::vector<Trace> traces = {workload::generateTrace(
        spec, 20000, 3, 1ull << 32)};
    System sys(baseSystem(), traces);
    sys.run(150000);
    EXPECT_GT(sys.stats().channels.commands.wr, 0u);
}

TEST(System, ChannelInterleavingUsesAllChannels)
{
    SystemConfig cfg = baseSystem();
    System sys(cfg, memoryHeavyTraces(2));
    sys.run(50000);
    // Both channels must see traffic: total reads spread (checked via
    // aggregate being substantially larger than one channel could
    // serve at the burst rate... simpler: reads > 0 and misses > 0).
    EXPECT_GT(sys.stats().channels.commands.rd, 100u);
}

TEST(System, ConfigValidation)
{
    SystemConfig cfg = baseSystem();
    EXPECT_DEATH(System(cfg, {}), "at least one trace");
    cfg.channels = 0;
    EXPECT_DEATH(System(cfg, memoryHeavyTraces(1)), "channel");
}

// Golden statistics. Every SystemStats field of 144 configurations,
// recorded from the cycle-by-cycle simulator before it learned to skip
// cycles in which a core or a channel provably cannot change: refresh
// {all-bank, per-bank} x {64 ms, 1024 ms, off} x row policy {open,
// closed} x scheduler {FR-FCFS, FCFS} x {8, 64} Gb, on two 4-core
// Fig. 13 mixes and a write-heavy load. The Fig. 13 mixes never write
// to DRAM; the write-heavy load (4 x mcf at 30% reads, 256 KB LLC, 2
// channels) does: with the default modes at 8 Gb its write queues reach
// 57 entries and enter write-drain mode 6 times, and under FCFS they
// fill to capacity. Any change to the time advance must reproduce every
// value bit for bit; a timing constraint missing from a wake set shows
// up here.

enum GoldenLoad
{
    kMix0,
    kMix1,
    kWriteHeavy,
};

constexpr Cycle kGoldenCycles = 50000;
constexpr auto kAllBank = RefreshGranularity::AllBank;
constexpr auto kPerBank = RefreshGranularity::PerBank;
constexpr auto kOpen = RowPolicy::Open;
constexpr auto kClosed = RowPolicy::Closed;
constexpr auto kFrFcfs = SchedulerPolicy::FrFcfs;
constexpr auto kFcfs = SchedulerPolicy::Fcfs;

std::vector<Trace>
goldenTraces(GoldenLoad load)
{
    if (load == kWriteHeavy) {
        workload::BenchmarkSpec spec = workload::benchmarkByName("mcf");
        spec.readFraction = 0.3;
        std::vector<Trace> traces;
        for (uint64_t i = 0; i < 4; ++i) {
            traces.push_back(
                workload::generateTrace(spec, 20000, 3 + i, (i + 1) << 32));
        }
        return traces;
    }
    // The first two mixes and the trace length of the benchmark's
    // fig13_sim sweep.
    std::vector<workload::WorkloadMix> mixes = workload::makeMixes(2, 1);
    return workload::tracesForMix(mixes[static_cast<size_t>(load)], 4000, 1);
}

struct GoldenCase
{
    GoldenLoad load;
    unsigned gbit;
    Seconds refresh; ///< 0 = refresh off
    RefreshGranularity granularity;
    RowPolicy rowPolicy;
    SchedulerPolicy scheduler;

    uint64_t insts[4];
    uint64_t ipcBits[4]; ///< bit patterns of the per-core IPCs
    uint64_t memCycles;
    uint64_t llcHits, llcMisses, llcWritebacks;
    uint64_t act, pre, rd, wr, refab, refpb;
    uint64_t readsServed, writesServed;
    uint64_t refreshStallCycles, readLatencySum;
};

SystemConfig
goldenConfig(const GoldenCase &g)
{
    SystemConfig cfg; // Table 2: 8 MB LLC, 4 channels
    if (g.load == kWriteHeavy) {
        cfg.channels = 2;
        cfg.llc.sizeBytes = 256 * 1024;
    }
    cfg.setDram(g.gbit, g.refresh);
    cfg.ctrl.refreshGranularity = g.granularity;
    cfg.ctrl.rowPolicy = g.rowPolicy;
    cfg.ctrl.scheduler = g.scheduler;
    return cfg;
}

std::string
describe(const GoldenCase &g)
{
    static const char *loads[] = {"mix0", "mix1", "write-heavy"};
    return std::string(loads[g.load]) + " " + std::to_string(g.gbit) +
           "Gb refresh=" + std::to_string(g.refresh) +
           (g.granularity == kAllBank ? " all-bank" : " per-bank") +
           (g.rowPolicy == kOpen ? " open" : " closed") +
           (g.scheduler == kFrFcfs ? " fr-fcfs" : " fcfs");
}

// clang-format off
const GoldenCase kGolden[] = {
    {kMix0, 8, 0.064, kAllBank, kOpen, kFrFcfs,
     {97944, 124627, 75636, 102752},
     {0x3fe912dba4d6e47e, 0x3fefe78e1932d6ed,
      0x3fe35ce18266772d, 0x3fea4df47f993d53},
     50000, 79, 6027, 0,
     2527, 2495, 4113, 0, 12, 0,
     4113, 0, 5364, 373607},
    {kMix0, 8, 0.064, kAllBank, kOpen, kFcfs,
     {61761, 98973, 52362, 71406},
     {0x3fdf9f23465625a7, 0x3fe9564b662fdfc2,
      0x3fdacf312b1b36bd, 0x3fe247a9e2bcf91a},
     50000, 56, 4197, 0,
     1864, 1832, 2855, 0, 12, 0,
     2855, 0, 5364, 378452},
    {kMix0, 8, 0.064, kAllBank, kClosed, kFrFcfs,
     {71472, 142976, 71857, 81895},
     {0x3fe24bfd2e946801, 0x3ff24d099e0e7360,
      0x3fe2653868fd199c, 0x3fe4f7121ab4b72c},
     50000, 76, 5168, 0,
     3538, 3535, 3530, 0, 12, 0,
     3530, 0, 5364, 359121},
    {kMix0, 8, 0.064, kAllBank, kClosed, kFcfs,
     {54098, 104591, 54403, 60893},
     {0x3fdbb2bba98eda23, 0x3feac679cc74b839,
      0x3fdbdab5c39bcba3, 0x3fdf2d5e071c53f4},
     50000, 58, 3970, 0,
     2715, 2715, 2708, 0, 12, 0,
     2708, 0, 5364, 368807},
    {kMix0, 8, 0.064, kPerBank, kOpen, kFrFcfs,
     {90704, 128500, 73740, 103636},
     {0x3fe73860999dcb58, 0x3ff072b020c49ba6,
      0x3fe2e09fe86833c6, 0x3fea87e38eb0318c},
     50000, 80, 5880, 0,
     2514, 2482, 4013, 0, 0, 124,
     4013, 0, 0, 370607},
    {kMix0, 8, 0.064, kPerBank, kOpen, kFcfs,
     {58573, 96166, 49584, 67149},
     {0x3fddfd47bedb7282, 0x3fe89e55c0fcb4f2,
      0x3fd96312f4cf4a56, 0x3fe130ad46f587d7},
     50000, 54, 4003, 0,
     1787, 1755, 2734, 0, 0, 124,
     2734, 0, 0, 372550},
    {kMix0, 8, 0.064, kPerBank, kClosed, kFrFcfs,
     {74725, 136505, 74376, 82489},
     {0x3fe3212d77318fc5, 0x3ff178feef5ec80c,
      0x3fe30a4e379b77c0, 0x3fe51dffc5479d4e},
     50000, 76, 5284, 0,
     3617, 3613, 3598, 0, 0, 124,
     3598, 0, 0, 362030},
    {kMix0, 8, 0.064, kPerBank, kClosed, kFcfs,
     {53248, 101453, 51210, 59869},
     {0x3fdb43526527a205, 0x3fe9f8d2e514c22f,
      0x3fda38327674d163, 0x3fdea7264a16a487},
     50000, 55, 3845, 0,
     2642, 2640, 2633, 0, 0, 124,
     2633, 0, 0, 369604},
    {kMix0, 8, 1.024, kAllBank, kOpen, kFrFcfs,
     {96025, 130043, 75940, 109491},
     {0x3fe895182a9930be, 0x3ff0a53fc0096feb,
      0x3fe370cdc8754f37, 0x3fec079a2834d270},
     50000, 80, 6135, 0,
     2563, 2533, 4182, 0, 0, 0,
     4182, 0, 0, 374385},
    {kMix0, 8, 1.024, kAllBank, kOpen, kFcfs,
     {60968, 100924, 52892, 70850},
     {0x3fdf37329c347e8d, 0x3fe9d627bf61aa3f,
      0x3fdb14a90470a809, 0x3fe22339c0ebedfa},
     50000, 56, 4192, 0,
     1871, 1840, 2855, 0, 0, 0,
     2855, 0, 0, 374886},
    {kMix0, 8, 1.024, kAllBank, kClosed, kFrFcfs,
     {74116, 145749, 73690, 83607},
     {0x3fe2f944241c3efb, 0x3ff2a7e73a365cb3,
      0x3fe2dd590c0ad03e, 0x3fe56744b2b777d1},
     50000, 78, 5318, 0,
     3630, 3626, 3626, 0, 0, 0,
     3626, 0, 0, 358300},
    {kMix0, 8, 1.024, kAllBank, kClosed, kFcfs,
     {56155, 104853, 55609, 62300},
     {0x3fdcc059210385c6, 0x3fead7a56de3326a,
      0x3fdc78c868b9fdbd, 0x3fdfe5c91d14e3bd},
     50000, 58, 4052, 0,
     2769, 2767, 2767, 0, 0, 0,
     2767, 0, 0, 367928},
    {kMix0, 8, 1.024, kPerBank, kOpen, kFrFcfs,
     {93342, 130214, 75260, 107445},
     {0x3fe7e542e557de0d, 0x3ff0aada33bd9cae,
      0x3fe3443d46b26bf8, 0x3feb8183f91e646f},
     50000, 80, 6030, 0,
     2546, 2517, 4109, 0, 0, 4,
     4109, 0, 0, 370740},
    {kMix0, 8, 1.024, kPerBank, kOpen, kFcfs,
     {65205, 101242, 53937, 72889},
     {0x3fe0b1465e892253, 0x3fe9eafee6fb4c3c,
      0x3fdb9da16616b54e, 0x3fe2a8da7f3cf701},
     50000, 56, 4329, 0,
     1873, 1842, 2936, 0, 0, 4,
     2936, 0, 0, 374871},
    {kMix0, 8, 1.024, kPerBank, kClosed, kFrFcfs,
     {74116, 145749, 73690, 83607},
     {0x3fe2f944241c3efb, 0x3ff2a7e73a365cb3,
      0x3fe2dd590c0ad03e, 0x3fe56744b2b777d1},
     50000, 78, 5318, 0,
     3630, 3626, 3626, 0, 0, 4,
     3626, 0, 0, 358300},
    {kMix0, 8, 1.024, kPerBank, kClosed, kFcfs,
     {56605, 108611, 54785, 63988},
     {0x3fdcfb549f94855e, 0x3febcdee34fc610f,
      0x3fdc0cc78e9f6a94, 0x3fe061847f562175},
     50000, 58, 4071, 0,
     2780, 2779, 2779, 0, 0, 4,
     2779, 0, 0, 365761},
    {kMix0, 8, 0.0, kAllBank, kOpen, kFrFcfs,
     {96025, 130043, 75940, 109491},
     {0x3fe895182a9930be, 0x3ff0a53fc0096feb,
      0x3fe370cdc8754f37, 0x3fec079a2834d270},
     50000, 80, 6135, 0,
     2563, 2533, 4182, 0, 0, 0,
     4182, 0, 0, 374385},
    {kMix0, 8, 0.0, kAllBank, kOpen, kFcfs,
     {60968, 100924, 52892, 70850},
     {0x3fdf37329c347e8d, 0x3fe9d627bf61aa3f,
      0x3fdb14a90470a809, 0x3fe22339c0ebedfa},
     50000, 56, 4192, 0,
     1871, 1840, 2855, 0, 0, 0,
     2855, 0, 0, 374886},
    {kMix0, 8, 0.0, kAllBank, kClosed, kFrFcfs,
     {74116, 145749, 73690, 83607},
     {0x3fe2f944241c3efb, 0x3ff2a7e73a365cb3,
      0x3fe2dd590c0ad03e, 0x3fe56744b2b777d1},
     50000, 78, 5318, 0,
     3630, 3626, 3626, 0, 0, 0,
     3626, 0, 0, 358300},
    {kMix0, 8, 0.0, kAllBank, kClosed, kFcfs,
     {56155, 104853, 55609, 62300},
     {0x3fdcc059210385c6, 0x3fead7a56de3326a,
      0x3fdc78c868b9fdbd, 0x3fdfe5c91d14e3bd},
     50000, 58, 4052, 0,
     2769, 2767, 2767, 0, 0, 0,
     2767, 0, 0, 367928},
    {kMix0, 8, 0.0, kPerBank, kOpen, kFrFcfs,
     {96025, 130043, 75940, 109491},
     {0x3fe895182a9930be, 0x3ff0a53fc0096feb,
      0x3fe370cdc8754f37, 0x3fec079a2834d270},
     50000, 80, 6135, 0,
     2563, 2533, 4182, 0, 0, 0,
     4182, 0, 0, 374385},
    {kMix0, 8, 0.0, kPerBank, kOpen, kFcfs,
     {60968, 100924, 52892, 70850},
     {0x3fdf37329c347e8d, 0x3fe9d627bf61aa3f,
      0x3fdb14a90470a809, 0x3fe22339c0ebedfa},
     50000, 56, 4192, 0,
     1871, 1840, 2855, 0, 0, 0,
     2855, 0, 0, 374886},
    {kMix0, 8, 0.0, kPerBank, kClosed, kFrFcfs,
     {74116, 145749, 73690, 83607},
     {0x3fe2f944241c3efb, 0x3ff2a7e73a365cb3,
      0x3fe2dd590c0ad03e, 0x3fe56744b2b777d1},
     50000, 78, 5318, 0,
     3630, 3626, 3626, 0, 0, 0,
     3626, 0, 0, 358300},
    {kMix0, 8, 0.0, kPerBank, kClosed, kFcfs,
     {56155, 104853, 55609, 62300},
     {0x3fdcc059210385c6, 0x3fead7a56de3326a,
      0x3fdc78c868b9fdbd, 0x3fdfe5c91d14e3bd},
     50000, 58, 4052, 0,
     2769, 2767, 2767, 0, 0, 0,
     2767, 0, 0, 367928},
    {kMix0, 64, 0.064, kAllBank, kOpen, kFrFcfs,
     {90063, 116578, 68993, 99038},
     {0x3fe70e5e679463d0, 0x3fedd80e496ededb,
      0x3fe1a98676a7264a, 0x3fe95a8deb0fadf3},
     50000, 75, 5619, 0,
     2342, 2312, 3833, 0, 12, 0,
     3833, 0, 19188, 367784},
    {kMix0, 64, 0.064, kAllBank, kOpen, kFcfs,
     {57765, 91027, 49539, 66963},
     {0x3fdd935fc3b4f616, 0x3fe74d8ba40d90e2,
      0x3fd95d2d01c0ca60, 0x3fe1247cb70ac3a8},
     50000, 54, 3945, 0,
     1720, 1688, 2699, 0, 12, 0,
     2699, 0, 19188, 397933},
    {kMix0, 64, 0.064, kAllBank, kClosed, kFrFcfs,
     {67308, 133544, 64906, 77200},
     {0x3fe13b18dac258d6, 0x3ff117f84449dbec,
      0x3fe09dadfb506dd7, 0x3fe3c36113404ea5},
     50000, 69, 4848, 0,
     3327, 3325, 3315, 0, 12, 0,
     3315, 0, 19188, 375806},
    {kMix0, 64, 0.064, kAllBank, kClosed, kFcfs,
     {51382, 94970, 50012, 57130},
     {0x3fda4ebdd334c5da, 0x3fe84ff43419e300,
      0x3fd99b2c40d0aaa8, 0x3fdd4024b33daf8e},
     50000, 54, 3680, 0,
     2534, 2533, 2527, 0, 12, 0,
     2527, 0, 19188, 379992},
    {kMix0, 64, 0.064, kPerBank, kOpen, kFrFcfs,
     {74341, 97863, 48196, 68920},
     {0x3fe3080303c07ee1, 0x3fe90d8cb07d0aee,
      0x3fd8ad256798958e, 0x3fe1a4bdba0a5269},
     50000, 54, 4317, 0,
     1848, 1820, 2920, 0, 0, 124,
     2920, 0, 0, 359021},
    {kMix0, 64, 0.064, kPerBank, kOpen, kFcfs,
     {40364, 68710, 33953, 46457},
     {0x3fd4aa9717df19d6, 0x3fe196fa82e87d2c,
      0x3fd16249a133c1ce, 0x3fd7c9363f572de4},
     50000, 39, 2791, 0,
     1270, 1239, 1907, 0, 0, 124,
     1907, 0, 0, 356107},
    {kMix0, 64, 0.064, kPerBank, kClosed, kFrFcfs,
     {50291, 99681, 45618, 48111},
     {0x3fd9bfbdf090f734, 0x3fe984b1ab0856e7,
      0x3fd75b3e1437c569, 0x3fd8a2014727dcbe},
     50000, 49, 3445, 0,
     2380, 2379, 2362, 0, 0, 124,
     2362, 0, 0, 363013},
    {kMix0, 64, 0.064, kPerBank, kClosed, kFcfs,
     {39554, 74707, 37860, 43533},
     {0x3fd4406c00da1a93, 0x3fe31fff79c842fa,
      0x3fd36262cba732df, 0x3fd649f51697f1fa},
     50000, 41, 2840, 0,
     1963, 1960, 1956, 0, 0, 124,
     1956, 0, 0, 353431},
    {kMix0, 64, 1.024, kAllBank, kOpen, kFrFcfs,
     {96025, 130043, 75940, 109491},
     {0x3fe895182a9930be, 0x3ff0a53fc0096feb,
      0x3fe370cdc8754f37, 0x3fec079a2834d270},
     50000, 80, 6135, 0,
     2564, 2534, 4182, 0, 0, 0,
     4182, 0, 0, 374448},
    {kMix0, 64, 1.024, kAllBank, kOpen, kFcfs,
     {60968, 100924, 52892, 70850},
     {0x3fdf37329c347e8d, 0x3fe9d627bf61aa3f,
      0x3fdb14a90470a809, 0x3fe22339c0ebedfa},
     50000, 56, 4192, 0,
     1871, 1840, 2855, 0, 0, 0,
     2855, 0, 0, 374886},
    {kMix0, 64, 1.024, kAllBank, kClosed, kFrFcfs,
     {74116, 145749, 73690, 83607},
     {0x3fe2f944241c3efb, 0x3ff2a7e73a365cb3,
      0x3fe2dd590c0ad03e, 0x3fe56744b2b777d1},
     50000, 78, 5318, 0,
     3630, 3626, 3626, 0, 0, 0,
     3626, 0, 0, 358300},
    {kMix0, 64, 1.024, kAllBank, kClosed, kFcfs,
     {56155, 104853, 55609, 62300},
     {0x3fdcc059210385c6, 0x3fead7a56de3326a,
      0x3fdc78c868b9fdbd, 0x3fdfe5c91d14e3bd},
     50000, 58, 4052, 0,
     2769, 2767, 2767, 0, 0, 0,
     2767, 0, 0, 367928},
    {kMix0, 64, 1.024, kPerBank, kOpen, kFrFcfs,
     {94527, 130043, 76387, 108900},
     {0x3fe832ebe596c82e, 0x3ff0a53fc0096feb,
      0x3fe38e1932d6ece1, 0x3febe0ded288ce70},
     50000, 80, 6102, 0,
     2587, 2555, 4164, 0, 0, 4,
     4164, 0, 0, 376226},
    {kMix0, 64, 1.024, kPerBank, kOpen, kFcfs,
     {64268, 100249, 52849, 71557},
     {0x3fe073de1e2de871, 0x3fe9a9eb2074ea8e,
      0x3fdb0f062d40aaeb, 0x3fe2518f3eccc469},
     50000, 56, 4265, 0,
     1852, 1821, 2901, 0, 0, 4,
     2901, 0, 0, 376495},
    {kMix0, 64, 1.024, kPerBank, kClosed, kFrFcfs,
     {74116, 145749, 73690, 83607},
     {0x3fe2f944241c3efb, 0x3ff2a7e73a365cb3,
      0x3fe2dd590c0ad03e, 0x3fe56744b2b777d1},
     50000, 78, 5318, 0,
     3630, 3626, 3626, 0, 0, 4,
     3626, 0, 0, 358447},
    {kMix0, 64, 1.024, kPerBank, kClosed, kFcfs,
     {55664, 103026, 55457, 61787},
     {0x3fdc7ffde7210be9, 0x3fea5fe974a3400c,
      0x3fdc64dc22ab25b3, 0x3fdfa28bb0a2ca9b},
     50000, 58, 4029, 0,
     2753, 2752, 2752, 0, 0, 4,
     2752, 0, 0, 368608},
    {kMix0, 64, 0.0, kAllBank, kOpen, kFrFcfs,
     {96025, 130043, 75940, 109491},
     {0x3fe895182a9930be, 0x3ff0a53fc0096feb,
      0x3fe370cdc8754f37, 0x3fec079a2834d270},
     50000, 80, 6135, 0,
     2564, 2534, 4182, 0, 0, 0,
     4182, 0, 0, 374448},
    {kMix0, 64, 0.0, kAllBank, kOpen, kFcfs,
     {60968, 100924, 52892, 70850},
     {0x3fdf37329c347e8d, 0x3fe9d627bf61aa3f,
      0x3fdb14a90470a809, 0x3fe22339c0ebedfa},
     50000, 56, 4192, 0,
     1871, 1840, 2855, 0, 0, 0,
     2855, 0, 0, 374886},
    {kMix0, 64, 0.0, kAllBank, kClosed, kFrFcfs,
     {74116, 145749, 73690, 83607},
     {0x3fe2f944241c3efb, 0x3ff2a7e73a365cb3,
      0x3fe2dd590c0ad03e, 0x3fe56744b2b777d1},
     50000, 78, 5318, 0,
     3630, 3626, 3626, 0, 0, 0,
     3626, 0, 0, 358300},
    {kMix0, 64, 0.0, kAllBank, kClosed, kFcfs,
     {56155, 104853, 55609, 62300},
     {0x3fdcc059210385c6, 0x3fead7a56de3326a,
      0x3fdc78c868b9fdbd, 0x3fdfe5c91d14e3bd},
     50000, 58, 4052, 0,
     2769, 2767, 2767, 0, 0, 0,
     2767, 0, 0, 367928},
    {kMix0, 64, 0.0, kPerBank, kOpen, kFrFcfs,
     {96025, 130043, 75940, 109491},
     {0x3fe895182a9930be, 0x3ff0a53fc0096feb,
      0x3fe370cdc8754f37, 0x3fec079a2834d270},
     50000, 80, 6135, 0,
     2564, 2534, 4182, 0, 0, 0,
     4182, 0, 0, 374448},
    {kMix0, 64, 0.0, kPerBank, kOpen, kFcfs,
     {60968, 100924, 52892, 70850},
     {0x3fdf37329c347e8d, 0x3fe9d627bf61aa3f,
      0x3fdb14a90470a809, 0x3fe22339c0ebedfa},
     50000, 56, 4192, 0,
     1871, 1840, 2855, 0, 0, 0,
     2855, 0, 0, 374886},
    {kMix0, 64, 0.0, kPerBank, kClosed, kFrFcfs,
     {74116, 145749, 73690, 83607},
     {0x3fe2f944241c3efb, 0x3ff2a7e73a365cb3,
      0x3fe2dd590c0ad03e, 0x3fe56744b2b777d1},
     50000, 78, 5318, 0,
     3630, 3626, 3626, 0, 0, 0,
     3626, 0, 0, 358300},
    {kMix0, 64, 0.0, kPerBank, kClosed, kFcfs,
     {56155, 104853, 55609, 62300},
     {0x3fdcc059210385c6, 0x3fead7a56de3326a,
      0x3fdc78c868b9fdbd, 0x3fdfe5c91d14e3bd},
     50000, 58, 4052, 0,
     2769, 2767, 2767, 0, 0, 0,
     2767, 0, 0, 367928},
    {kMix1, 8, 0.064, kAllBank, kOpen, kFrFcfs,
     {69738, 94111, 74554, 263435},
     {0x3fe1da597d49d7ba, 0x3fe817a89331a08c,
      0x3fe315f88fc9363f, 0x4000dc1e7967caea},
     50000, 277, 5770, 0,
     2624, 2594, 4672, 0, 12, 0,
     4672, 0, 5364, 418295},
    {kMix1, 8, 0.064, kAllBank, kOpen, kFcfs,
     {46683, 50145, 52833, 237081},
     {0x3fd7e6d58c8eef1c, 0x3fd9ac9afe1da7b1,
      0x3fdb0ced4e4c942d, 0x3ffe58ab92c06184},
     50000, 187, 3624, 0,
     1834, 1804, 2929, 0, 12, 0,
     2929, 0, 5364, 410452},
    {kMix1, 8, 0.064, kAllBank, kClosed, kFrFcfs,
     {62312, 54548, 79031, 284196},
     {0x3fdfe75bc44bf4cb, 0x3fdbedb7281fd9ba,
      0x3fe43b60285ec3db, 0x400230446b69db66},
     50000, 231, 4618, 0,
     3707, 3706, 3697, 0, 12, 0,
     3697, 0, 5364, 404860},
    {kMix1, 8, 0.064, kAllBank, kClosed, kFcfs,
     {45709, 45422, 55482, 242363},
     {0x3fd7672b884406c0, 0x3fd7418d6909aed5,
      0x3fdc6822ff08893b, 0x3fff05c03361565c},
     50000, 182, 3536, 0,
     2861, 2858, 2853, 0, 12, 0,
     2853, 0, 5364, 416828},
    {kMix1, 8, 0.064, kPerBank, kOpen, kFrFcfs,
     {67912, 88018, 72720, 266441},
     {0x3fe162ae4b018612, 0x3fe68858ff759685,
      0x3fe29dc725c3dee8, 0x40010d5e8d5410f9},
     50000, 272, 5537, 0,
     2601, 2569, 4476, 0, 0, 124,
     4476, 0, 0, 409331},
    {kMix1, 8, 0.064, kPerBank, kOpen, kFcfs,
     {46318, 50882, 52720, 246124},
     {0x3fd7b6fe2e6ea854, 0x3fda0d349be8ff32,
      0x3fdafe1da7b0b392, 0x3fff80fdc1615ec0},
     50000, 189, 3641, 0,
     1822, 1794, 2946, 0, 0, 124,
     2946, 0, 0, 409167},
    {kMix1, 8, 0.064, kPerBank, kClosed, kFrFcfs,
     {60633, 56034, 78407, 285625},
     {0x3fdf0b49e01de269, 0x3fdcb07d0aed99cc,
      0x3fe4127b2cc70868, 0x400247ae147ae148},
     50000, 229, 4612, 0,
     3700, 3700, 3693, 0, 0, 124,
     3693, 0, 0, 401110},
    {kMix1, 8, 0.064, kPerBank, kClosed, kFcfs,
     {46694, 46641, 56382, 250970},
     {0x3fd7e846a5d6bebe, 0x3fd7e154434e336a,
      0x3fdcde19fc2a886a, 0x40000fe47991bc56},
     50000, 182, 3619, 0,
     2932, 2929, 2926, 0, 0, 124,
     2926, 0, 0, 416029},
    {kMix1, 8, 1.024, kAllBank, kOpen, kFrFcfs,
     {71551, 96332, 77044, 269051},
     {0x3fe2512a94ff0026, 0x3fe8a936c58eeaea,
      0x3fe3b927d45a5fc8, 0x40013821af7d30ad},
     50000, 281, 5929, 0,
     2683, 2654, 4805, 0, 0, 0,
     4805, 0, 0, 417620},
    {kMix1, 8, 1.024, kAllBank, kOpen, kFcfs,
     {47934, 50861, 53722, 239665},
     {0x3fd88ace24bba12b, 0x3fda0a73f748a15a,
      0x3fdb81733226c3b9, 0x3ffead57bc7f77af},
     50000, 189, 3695, 0,
     1854, 1824, 2988, 0, 0, 0,
     2988, 0, 0, 409723},
    {kMix1, 8, 1.024, kAllBank, kClosed, kFrFcfs,
     {62867, 55704, 81773, 291489},
     {0x3fe0180d3cff64d0, 0x3fdc853c148344c3,
      0x3fe4ef1348b22079, 0x4002a7c17a89331a},
     50000, 234, 4719, 0,
     3770, 3769, 3769, 0, 0, 0,
     3769, 0, 0, 402795},
    {kMix1, 8, 1.024, kAllBank, kClosed, kFcfs,
     {45919, 47970, 57442, 248818},
     {0x3fd782b1f687b13a, 0x3fd88f861a60d456,
      0x3fdd6909aed56b01, 0x3fffd944aa53fc01},
     50000, 182, 3654, 0,
     2952, 2950, 2950, 0, 0, 0,
     2950, 0, 0, 422105},
    {kMix1, 8, 1.024, kPerBank, kOpen, kFrFcfs,
     {71288, 93354, 76390, 267523},
     {0x3fe23fee2c98e53f, 0x3fe7e60c38f36695,
      0x3fe38e4b87bdcf03, 0x40011f18c9fb6135},
     50000, 278, 5827, 0,
     2677, 2645, 4717, 0, 0, 4,
     4717, 0, 0, 413803},
    {kMix1, 8, 1.024, kPerBank, kOpen, kFcfs,
     {47991, 50861, 53722, 239920},
     {0x3fd89246bf01322f, 0x3fda0a73f748a15a,
      0x3fdb81733226c3b9, 0x3ffeb5b2d4d4024b},
     50000, 190, 3698, 0,
     1856, 1824, 2989, 0, 0, 4,
     2989, 0, 0, 410185},
    {kMix1, 8, 1.024, kPerBank, kClosed, kFrFcfs,
     {63848, 55837, 82203, 287097},
     {0x3fe05857afea3df7, 0x3fdc96aad1d041cc,
      0x3fe50b417ca2120e, 0x40025fcc1871e6cd},
     50000, 236, 4746, 0,
     3794, 3793, 3793, 0, 0, 4,
     3793, 0, 0, 404639},
    {kMix1, 8, 1.024, kPerBank, kClosed, kFcfs,
     {46436, 47178, 56618, 249585},
     {0x3fd7c6759ab6d00b, 0x3fd827b6fe2e6ea8,
      0x3fdcfd08d4bad7d8, 0x3ffff266ba493c8a},
     50000, 182, 3636, 0,
     2940, 2938, 2938, 0, 0, 4,
     2938, 0, 0, 418009},
    {kMix1, 8, 0.0, kAllBank, kOpen, kFrFcfs,
     {71551, 96332, 77044, 269051},
     {0x3fe2512a94ff0026, 0x3fe8a936c58eeaea,
      0x3fe3b927d45a5fc8, 0x40013821af7d30ad},
     50000, 281, 5929, 0,
     2683, 2654, 4805, 0, 0, 0,
     4805, 0, 0, 417620},
    {kMix1, 8, 0.0, kAllBank, kOpen, kFcfs,
     {47934, 50861, 53722, 239665},
     {0x3fd88ace24bba12b, 0x3fda0a73f748a15a,
      0x3fdb81733226c3b9, 0x3ffead57bc7f77af},
     50000, 189, 3695, 0,
     1854, 1824, 2988, 0, 0, 0,
     2988, 0, 0, 409723},
    {kMix1, 8, 0.0, kAllBank, kClosed, kFrFcfs,
     {62867, 55704, 81773, 291489},
     {0x3fe0180d3cff64d0, 0x3fdc853c148344c3,
      0x3fe4ef1348b22079, 0x4002a7c17a89331a},
     50000, 234, 4719, 0,
     3770, 3769, 3769, 0, 0, 0,
     3769, 0, 0, 402795},
    {kMix1, 8, 0.0, kAllBank, kClosed, kFcfs,
     {45919, 47970, 57442, 248818},
     {0x3fd782b1f687b13a, 0x3fd88f861a60d456,
      0x3fdd6909aed56b01, 0x3fffd944aa53fc01},
     50000, 182, 3654, 0,
     2952, 2950, 2950, 0, 0, 0,
     2950, 0, 0, 422105},
    {kMix1, 8, 0.0, kPerBank, kOpen, kFrFcfs,
     {71551, 96332, 77044, 269051},
     {0x3fe2512a94ff0026, 0x3fe8a936c58eeaea,
      0x3fe3b927d45a5fc8, 0x40013821af7d30ad},
     50000, 281, 5929, 0,
     2683, 2654, 4805, 0, 0, 0,
     4805, 0, 0, 417620},
    {kMix1, 8, 0.0, kPerBank, kOpen, kFcfs,
     {47934, 50861, 53722, 239665},
     {0x3fd88ace24bba12b, 0x3fda0a73f748a15a,
      0x3fdb81733226c3b9, 0x3ffead57bc7f77af},
     50000, 189, 3695, 0,
     1854, 1824, 2988, 0, 0, 0,
     2988, 0, 0, 409723},
    {kMix1, 8, 0.0, kPerBank, kClosed, kFrFcfs,
     {62867, 55704, 81773, 291489},
     {0x3fe0180d3cff64d0, 0x3fdc853c148344c3,
      0x3fe4ef1348b22079, 0x4002a7c17a89331a},
     50000, 234, 4719, 0,
     3770, 3769, 3769, 0, 0, 0,
     3769, 0, 0, 402795},
    {kMix1, 8, 0.0, kPerBank, kClosed, kFcfs,
     {45919, 47970, 57442, 248818},
     {0x3fd782b1f687b13a, 0x3fd88f861a60d456,
      0x3fdd6909aed56b01, 0x3fffd944aa53fc01},
     50000, 182, 3654, 0,
     2952, 2950, 2950, 0, 0, 0,
     2950, 0, 0, 422105},
    {kMix1, 64, 0.064, kAllBank, kOpen, kFrFcfs,
     {64347, 88268, 70164, 249373},
     {0x3fe0790b84988095, 0x3fe698bb4d48882f,
      0x3fe1f644955b4678, 0x3fffeb7457c0b136},
     50000, 269, 5389, 0,
     2446, 2417, 4362, 0, 12, 0,
     4362, 0, 19188, 432661},
    {kMix1, 64, 0.064, kAllBank, kOpen, kFcfs,
     {44149, 47831, 49666, 223240},
     {0x3fd69ab29e4d5d81, 0x3fd87d4e09784ec6,
      0x3fd96dd26b723ee2, 0x3ffc9320d9945b6c},
     50000, 174, 3434, 0,
     1717, 1687, 2782, 0, 12, 0,
     2782, 0, 19188, 416597},
    {kMix1, 64, 0.064, kAllBank, kClosed, kFrFcfs,
     {58443, 50805, 73822, 267395},
     {0x3fddec3dab5c39bd, 0x3fda031ceaf251c2,
      0x3fe2e5ffa3b9ae0c, 0x40011cffeb074a77},
     50000, 201, 4323, 0,
     3472, 3472, 3460, 0, 12, 0,
     3460, 0, 19188, 418622},
    {kMix1, 64, 0.064, kAllBank, kClosed, kFcfs,
     {42239, 41887, 51714, 227162},
     {0x3fd5a059a73b42cc, 0x3fd572367e414e7f,
      0x3fda7a41e57d9dbb, 0x3ffd13a4f8726d05},
     50000, 167, 3264, 0,
     2641, 2637, 2631, 0, 12, 0,
     2631, 0, 19188, 414155},
    {kMix1, 64, 0.064, kPerBank, kOpen, kFrFcfs,
     {50743, 71588, 49126, 264892},
     {0x3fd9fafc8b0079a3, 0x3fe2539756c93a71,
      0x3fd9270b06c43f60, 0x4000f3fd933e35c6},
     50000, 249, 4255, 0,
     1920, 1888, 3471, 0, 0, 124,
     3471, 0, 0, 396398},
    {kMix1, 64, 0.064, kPerBank, kOpen, kFcfs,
     {32080, 32120, 36337, 192964},
     {0x3fd06cca2db61bb0, 0x3fd072085b18548b,
      0x3fd29ac36544fe37, 0x3ff8b30b5aa71583},
     50000, 130, 2467, 0,
     1236, 1206, 2005, 0, 0, 124,
     2005, 0, 0, 376888},
    {kMix1, 64, 0.064, kPerBank, kClosed, kFrFcfs,
     {45938, 57198, 56069, 267326},
     {0x3fd7852f7f498c3b, 0x3fdd490e66cb1034,
      0x3fdcb51372a38b8b, 0x40011bde82d7b635},
     50000, 212, 3897, 0,
     3157, 3154, 3151, 0, 0, 124,
     3151, 0, 0, 386778},
    {kMix1, 64, 0.064, kPerBank, kClosed, kFcfs,
     {34142, 33606, 42159, 213441},
     {0x3fd17b0f6ad70e6f, 0x3fd134ce3de6149c,
      0x3fd595dd4c76d118, 0x3ffb5208e1501190},
     50000, 151, 2650, 0,
     2142, 2140, 2135, 0, 0, 124,
     2135, 0, 0, 403238},
    {kMix1, 64, 1.024, kAllBank, kOpen, kFrFcfs,
     {71178, 95973, 76826, 268225},
     {0x3fe238b8ae31d713, 0x3fe891afc04c8bca,
      0x3fe3aade657b84dc, 0x40012a9930be0ded},
     50000, 278, 5904, 0,
     2687, 2655, 4786, 0, 0, 0,
     4786, 0, 0, 418421},
    {kMix1, 64, 1.024, kAllBank, kOpen, kFcfs,
     {47979, 50861, 53722, 239710},
     {0x3fd890b417ca2121, 0x3fda0a73f748a15a,
      0x3fdb81733226c3b9, 0x3ffeaed1394317ad},
     50000, 190, 3698, 0,
     1857, 1827, 2988, 0, 0, 0,
     2988, 0, 0, 409329},
    {kMix1, 64, 1.024, kAllBank, kClosed, kFrFcfs,
     {62867, 55704, 81773, 291489},
     {0x3fe0180d3cff64d0, 0x3fdc853c148344c3,
      0x3fe4ef1348b22079, 0x4002a7c17a89331a},
     50000, 234, 4719, 0,
     3770, 3769, 3769, 0, 0, 0,
     3769, 0, 0, 402795},
    {kMix1, 64, 1.024, kAllBank, kClosed, kFcfs,
     {45919, 47970, 57442, 248818},
     {0x3fd782b1f687b13a, 0x3fd88f861a60d456,
      0x3fdd6909aed56b01, 0x3fffd944aa53fc01},
     50000, 182, 3654, 0,
     2952, 2950, 2950, 0, 0, 0,
     2950, 0, 0, 422105},
    {kMix1, 64, 1.024, kPerBank, kOpen, kFrFcfs,
     {69872, 94168, 76555, 268345},
     {0x3fe1e321a2e7f6f5, 0x3fe81b64e054690e,
      0x3fe3991bc5586445, 0x40012c9081c2e33f},
     50000, 277, 5820, 0,
     2659, 2627, 4708, 0, 0, 4,
     4708, 0, 0, 421327},
    {kMix1, 64, 1.024, kPerBank, kOpen, kFcfs,
     {47802, 51545, 52720, 239890},
     {0x3fd87980f55de58e, 0x3fda641b328b6d87,
      0x3fdafe1da7b0b392, 0x3ffeb4b72c5197a2},
     50000, 196, 3690, 0,
     1828, 1798, 2980, 0, 0, 4,
     2980, 0, 0, 405742},
    {kMix1, 64, 1.024, kPerBank, kClosed, kFrFcfs,
     {62676, 56351, 78557, 294656},
     {0x3fe00b88ca3e7d13, 0x3fdcda09cc319c5a,
      0x3fe41c4fc1df3301, 0x4002dba4d6e47dc3},
     50000, 232, 4670, 0,
     3739, 3737, 3737, 0, 0, 4,
     3737, 0, 0, 401748},
    {kMix1, 64, 1.024, kPerBank, kClosed, kFcfs,
     {45709, 46641, 55931, 245783},
     {0x3fd7672b884406c0, 0x3fd7e154434e336a,
      0x3fdca2fcefaa4767, 0x3fff75d13d74d595},
     50000, 182, 3581, 0,
     2899, 2898, 2898, 0, 0, 4,
     2898, 0, 0, 416478},
    {kMix1, 64, 0.0, kAllBank, kOpen, kFrFcfs,
     {71178, 95973, 76826, 268225},
     {0x3fe238b8ae31d713, 0x3fe891afc04c8bca,
      0x3fe3aade657b84dc, 0x40012a9930be0ded},
     50000, 278, 5904, 0,
     2687, 2655, 4786, 0, 0, 0,
     4786, 0, 0, 418421},
    {kMix1, 64, 0.0, kAllBank, kOpen, kFcfs,
     {47979, 50861, 53722, 239710},
     {0x3fd890b417ca2121, 0x3fda0a73f748a15a,
      0x3fdb81733226c3b9, 0x3ffeaed1394317ad},
     50000, 190, 3698, 0,
     1857, 1827, 2988, 0, 0, 0,
     2988, 0, 0, 409329},
    {kMix1, 64, 0.0, kAllBank, kClosed, kFrFcfs,
     {62867, 55704, 81773, 291489},
     {0x3fe0180d3cff64d0, 0x3fdc853c148344c3,
      0x3fe4ef1348b22079, 0x4002a7c17a89331a},
     50000, 234, 4719, 0,
     3770, 3769, 3769, 0, 0, 0,
     3769, 0, 0, 402795},
    {kMix1, 64, 0.0, kAllBank, kClosed, kFcfs,
     {45919, 47970, 57442, 248818},
     {0x3fd782b1f687b13a, 0x3fd88f861a60d456,
      0x3fdd6909aed56b01, 0x3fffd944aa53fc01},
     50000, 182, 3654, 0,
     2952, 2950, 2950, 0, 0, 0,
     2950, 0, 0, 422105},
    {kMix1, 64, 0.0, kPerBank, kOpen, kFrFcfs,
     {71178, 95973, 76826, 268225},
     {0x3fe238b8ae31d713, 0x3fe891afc04c8bca,
      0x3fe3aade657b84dc, 0x40012a9930be0ded},
     50000, 278, 5904, 0,
     2687, 2655, 4786, 0, 0, 0,
     4786, 0, 0, 418421},
    {kMix1, 64, 0.0, kPerBank, kOpen, kFcfs,
     {47979, 50861, 53722, 239710},
     {0x3fd890b417ca2121, 0x3fda0a73f748a15a,
      0x3fdb81733226c3b9, 0x3ffeaed1394317ad},
     50000, 190, 3698, 0,
     1857, 1827, 2988, 0, 0, 0,
     2988, 0, 0, 409329},
    {kMix1, 64, 0.0, kPerBank, kClosed, kFrFcfs,
     {62867, 55704, 81773, 291489},
     {0x3fe0180d3cff64d0, 0x3fdc853c148344c3,
      0x3fe4ef1348b22079, 0x4002a7c17a89331a},
     50000, 234, 4719, 0,
     3770, 3769, 3769, 0, 0, 0,
     3769, 0, 0, 402795},
    {kMix1, 64, 0.0, kPerBank, kClosed, kFcfs,
     {45919, 47970, 57442, 248818},
     {0x3fd782b1f687b13a, 0x3fd88f861a60d456,
      0x3fdd6909aed56b01, 0x3fffd944aa53fc01},
     50000, 182, 3654, 0,
     2952, 2950, 2950, 0, 0, 0,
     2950, 0, 0, 422105},
    {kWriteHeavy, 8, 0.064, kAllBank, kOpen, kFrFcfs,
     {37587, 39815, 39576, 37921},
     {0x3fd33e9a6f826edb, 0x3fd462a1b5c7cd8a,
      0x3fd4434e3369b9d8, 0x3fd36a619da9c993},
     50000, 57, 7172, 2166,
     4506, 4496, 2104, 2074, 6, 0,
     2104, 2074, 2682, 432096},
    {kWriteHeavy, 8, 0.064, kAllBank, kOpen, kFcfs,
     {22672, 24817, 23530, 22840},
     {0x3fc737542a23bff9, 0x3fc969a0ad8a1166,
      0x3fc8183f91e646f1, 0x3fc7635e74299d88},
     50000, 33, 4363, 387,
     1565, 1550, 1285, 319, 6, 0,
     1285, 319, 2682, 476574},
    {kWriteHeavy, 8, 0.064, kAllBank, kClosed, kFrFcfs,
     {36808, 41438, 40662, 36583},
     {0x3fd2d87f88765ba7, 0x3fd5375c8d9f9054,
      0x3fd4d1a650614163, 0x3fd2bb01c92ddbdb},
     50000, 58, 7172, 2159,
     4602, 4597, 2108, 2123, 6, 0,
     2108, 2123, 2682, 408297},
    {kWriteHeavy, 8, 0.064, kAllBank, kClosed, kFcfs,
     {28860, 29377, 28261, 26847},
     {0x3fcd8d79d0a67621, 0x3fce15011904b3c4,
      0x3fccf0739b024f66, 0x3fcb7dc7abfb9bed},
     50000, 42, 5207, 830,
     2240, 2239, 1521, 697, 6, 0,
     1521, 697, 2682, 465304},
    {kWriteHeavy, 8, 0.064, kPerBank, kOpen, kFrFcfs,
     {37821, 38892, 40260, 37921},
     {0x3fd35d462c343b71, 0x3fd3e9a6f826edab,
      0x3fd49cf56eac8605, 0x3fd36a619da9c993},
     50000, 58, 7169, 2163,
     4475, 4465, 2102, 2089, 0, 62,
     2102, 2089, 0, 424680},
    {kWriteHeavy, 8, 0.064, kPerBank, kOpen, kFcfs,
     {22486, 23352, 22199, 21689},
     {0x3fc70691ea78af3e, 0x3fc7e996312f4cf5,
      0x3fc6bb55ac03ff69, 0x3fc635a426bb55ac},
     50000, 32, 4174, 320,
     1472, 1457, 1237, 269, 0, 62,
     1237, 269, 0, 478794},
    {kWriteHeavy, 8, 0.064, kPerBank, kClosed, kFrFcfs,
     {39111, 39343, 39956, 39359},
     {0x3fd4065b63d3e4ef, 0x3fd424c404a72eae,
      0x3fd4751ce28ed5f1, 0x3fd426dce39b456b},
     50000, 59, 7318, 2256,
     4740, 4736, 2151, 2206, 0, 62,
     2151, 2206, 0, 411223},
    {kWriteHeavy, 8, 0.064, kPerBank, kClosed, kFcfs,
     {28694, 29915, 27436, 27212},
     {0x3fcd61f5be5d9e41, 0x3fcea209aaa3ad19,
      0x3fcc182ecaeea63b, 0x3fcbdd76683c297c},
     50000, 43, 5197, 827,
     2250, 2248, 1524, 703, 0, 62,
     1524, 703, 0, 462266},
    {kWriteHeavy, 8, 1.024, kAllBank, kOpen, kFrFcfs,
     {37190, 40829, 39740, 40095},
     {0x3fd30a915379fa98, 0x3fd4e789e774eebf,
      0x3fd458cd20afa2f0, 0x3fd48754f3775b81},
     50000, 59, 7290, 2253,
     4649, 4638, 2141, 2194, 0, 0,
     2141, 2194, 0, 428952},
    {kWriteHeavy, 8, 1.024, kAllBank, kOpen, kFcfs,
     {24414, 25345, 24416, 23710},
     {0x3fc8fffbce4217d3, 0x3fc9f40a2877ee4e,
      0x3fc9008205ff1d82, 0x3fc8476f2a5a469d},
     50000, 35, 4546, 469,
     1662, 1649, 1338, 370, 0, 0,
     1338, 370, 0, 486004},
    {kWriteHeavy, 8, 1.024, kAllBank, kClosed, kFrFcfs,
     {38537, 42493, 40662, 38054},
     {0x3fd3bb1f255f351a, 0x3fd5c1a47a9e2bd0,
      0x3fd4d1a650614163, 0x3fd37bd05af6c69b},
     50000, 58, 7386, 2311,
     4849, 4843, 2165, 2243, 0, 0,
     2165, 2243, 0, 415194},
    {kWriteHeavy, 8, 1.024, kAllBank, kClosed, kFcfs,
     {30002, 30769, 28174, 27580},
     {0x3fceb8d823422468, 0x3fcf81e8a2ec28b3,
      0x3fccd9a52263d817, 0x3fcc3dee78183f92},
     50000, 43, 5344, 904,
     2366, 2364, 1570, 776, 0, 0,
     1570, 776, 0, 463147},
    {kWriteHeavy, 8, 1.024, kPerBank, kOpen, kFrFcfs,
     {37972, 40297, 39576, 39740},
     {0x3fd37110e453d20f, 0x3fd4a1cef240fa9c,
      0x3fd4434e3369b9d8, 0x3fd458cd20afa2f0},
     50000, 59, 7289, 2247,
     4609, 4597, 2140, 2184, 0, 2,
     2140, 2184, 0, 431092},
    {kWriteHeavy, 8, 1.024, kPerBank, kOpen, kFcfs,
     {24414, 25345, 24416, 23710},
     {0x3fc8fffbce4217d3, 0x3fc9f40a2877ee4e,
      0x3fc9008205ff1d82, 0x3fc8476f2a5a469d},
     50000, 35, 4546, 469,
     1661, 1646, 1337, 369, 0, 2,
     1337, 369, 0, 486181},
    {kWriteHeavy, 8, 1.024, kPerBank, kClosed, kFrFcfs,
     {38709, 40662, 38958, 38827},
     {0x3fd3d1aa821f2991, 0x3fd4d1a650614163,
      0x3fd3f24d8fd5cb79, 0x3fd3e121ee675148},
     50000, 57, 7279, 2244,
     4760, 4757, 2139, 2204, 0, 2,
     2139, 2204, 0, 416359},
    {kWriteHeavy, 8, 1.024, kPerBank, kClosed, kFcfs,
     {29710, 30138, 28372, 27031},
     {0x3fce6c4c5974e65c, 0x3fcedc7ef177a701,
      0x3fcd0d8cb07d0aee, 0x3fcbae03b3e9a6f8},
     50000, 42, 5294, 879,
     2328, 2326, 1548, 757, 0, 2,
     1548, 757, 0, 459719},
    {kWriteHeavy, 8, 0.0, kAllBank, kOpen, kFrFcfs,
     {37190, 40829, 39740, 40095},
     {0x3fd30a915379fa98, 0x3fd4e789e774eebf,
      0x3fd458cd20afa2f0, 0x3fd48754f3775b81},
     50000, 59, 7290, 2253,
     4649, 4638, 2141, 2194, 0, 0,
     2141, 2194, 0, 428952},
    {kWriteHeavy, 8, 0.0, kAllBank, kOpen, kFcfs,
     {24414, 25345, 24416, 23710},
     {0x3fc8fffbce4217d3, 0x3fc9f40a2877ee4e,
      0x3fc9008205ff1d82, 0x3fc8476f2a5a469d},
     50000, 35, 4546, 469,
     1662, 1649, 1338, 370, 0, 0,
     1338, 370, 0, 486004},
    {kWriteHeavy, 8, 0.0, kAllBank, kClosed, kFrFcfs,
     {38537, 42493, 40662, 38054},
     {0x3fd3bb1f255f351a, 0x3fd5c1a47a9e2bd0,
      0x3fd4d1a650614163, 0x3fd37bd05af6c69b},
     50000, 58, 7386, 2311,
     4849, 4843, 2165, 2243, 0, 0,
     2165, 2243, 0, 415194},
    {kWriteHeavy, 8, 0.0, kAllBank, kClosed, kFcfs,
     {30002, 30769, 28174, 27580},
     {0x3fceb8d823422468, 0x3fcf81e8a2ec28b3,
      0x3fccd9a52263d817, 0x3fcc3dee78183f92},
     50000, 43, 5344, 904,
     2366, 2364, 1570, 776, 0, 0,
     1570, 776, 0, 463147},
    {kWriteHeavy, 8, 0.0, kPerBank, kOpen, kFrFcfs,
     {37190, 40829, 39740, 40095},
     {0x3fd30a915379fa98, 0x3fd4e789e774eebf,
      0x3fd458cd20afa2f0, 0x3fd48754f3775b81},
     50000, 59, 7290, 2253,
     4649, 4638, 2141, 2194, 0, 0,
     2141, 2194, 0, 428952},
    {kWriteHeavy, 8, 0.0, kPerBank, kOpen, kFcfs,
     {24414, 25345, 24416, 23710},
     {0x3fc8fffbce4217d3, 0x3fc9f40a2877ee4e,
      0x3fc9008205ff1d82, 0x3fc8476f2a5a469d},
     50000, 35, 4546, 469,
     1662, 1649, 1338, 370, 0, 0,
     1338, 370, 0, 486004},
    {kWriteHeavy, 8, 0.0, kPerBank, kClosed, kFrFcfs,
     {38537, 42493, 40662, 38054},
     {0x3fd3bb1f255f351a, 0x3fd5c1a47a9e2bd0,
      0x3fd4d1a650614163, 0x3fd37bd05af6c69b},
     50000, 58, 7386, 2311,
     4849, 4843, 2165, 2243, 0, 0,
     2165, 2243, 0, 415194},
    {kWriteHeavy, 8, 0.0, kPerBank, kClosed, kFcfs,
     {30002, 30769, 28174, 27580},
     {0x3fceb8d823422468, 0x3fcf81e8a2ec28b3,
      0x3fccd9a52263d817, 0x3fcc3dee78183f92},
     50000, 43, 5344, 904,
     2366, 2364, 1570, 776, 0, 0,
     1570, 776, 0, 463147},
    {kWriteHeavy, 64, 0.064, kAllBank, kOpen, kFrFcfs,
     {36952, 36813, 38059, 36225},
     {0x3fd2eb5f5f0b2852, 0x3fd2d9274e22a2c2,
      0x3fd37c7820a30db7, 0x3fd28c154c985f07},
     50000, 57, 6822, 1901,
     4085, 4073, 1999, 1849, 6, 0,
     1999, 1849, 9594, 426622},
    {kWriteHeavy, 64, 0.064, kAllBank, kOpen, kFcfs,
     {21879, 23384, 22300, 21544},
     {0x3fc66772d5e071c5, 0x3fc7f1f9acffa7eb,
      0x3fc6d5cfaacd9e84, 0x3fc60fa15db3397e},
     50000, 32, 4149, 307,
     1429, 1414, 1228, 242, 6, 0,
     1228, 242, 9594, 463681},
    {kWriteHeavy, 64, 0.064, kAllBank, kClosed, kFrFcfs,
     {36270, 37500, 38059, 36634},
     {0x3fd291fb3fa6defc, 0x3fd3333333333333,
      0x3fd37c7820a30db7, 0x3fd2c1b10fd7e458},
     50000, 57, 6851, 1928,
     4233, 4228, 2009, 1855, 6, 0,
     2009, 1855, 9594, 407715},
    {kWriteHeavy, 64, 0.064, kAllBank, kClosed, kFcfs,
     {26316, 28286, 26924, 24999},
     {0x3fcaf294dd72367e, 0x3fccf70153bd1676,
      0x3fcb91f70de8f6cf, 0x3fc999567dbb16c2},
     50000, 40, 4905, 652,
     2077, 2075, 1448, 604, 6, 0,
     1448, 604, 9594, 484778},
    {kWriteHeavy, 64, 0.064, kPerBank, kOpen, kFrFcfs,
     {34227, 35285, 34577, 34425},
     {0x3fd186338b47c73f, 0x3fd210e0221426fe,
      0x3fd1b413986338b4, 0x3fd1a027525460aa},
     50000, 53, 6385, 1606,
     3542, 3529, 1862, 1548, 0, 62,
     1862, 1548, 0, 385490},
    {kWriteHeavy, 64, 0.064, kPerBank, kOpen, kFcfs,
     {15319, 16855, 15452, 15451},
     {0x3fbf5f91600f3450, 0x3fc1426fe718a86d,
      0x3fbfa54c55432874, 0x3fbfa4c61d8622c4},
     50000, 23, 2963, 29,
     895, 881, 893, 29, 0, 62,
     893, 29, 0, 472580},
    {kWriteHeavy, 64, 0.064, kPerBank, kClosed, kFrFcfs,
     {37587, 34881, 33530, 36583},
     {0x3fd33e9a6f826edb, 0x3fd1dbec2480e8c9,
      0x3fd12ad81adea897, 0x3fd2bb01c92ddbdb},
     50000, 55, 6599, 1760,
     3881, 3878, 1933, 1708, 0, 62,
     1933, 1708, 0, 379042},
    {kWriteHeavy, 64, 0.064, kPerBank, kClosed, kFcfs,
     {20900, 22184, 19924, 19847},
     {0x3fc566cf41f212d7, 0x3fc6b76709fa54c5,
      0x3fc466f5019f3c71, 0x3fc452c59fb1e18f},
     50000, 30, 3876, 206,
     1359, 1358, 1156, 197, 0, 62,
     1156, 197, 0, 456661},
    {kWriteHeavy, 64, 1.024, kAllBank, kOpen, kFrFcfs,
     {37190, 40829, 39740, 40095},
     {0x3fd30a915379fa98, 0x3fd4e789e774eebf,
      0x3fd458cd20afa2f0, 0x3fd48754f3775b81},
     50000, 59, 7290, 2253,
     4649, 4638, 2141, 2194, 0, 0,
     2141, 2194, 0, 428952},
    {kWriteHeavy, 64, 1.024, kAllBank, kOpen, kFcfs,
     {24414, 25345, 24416, 23710},
     {0x3fc8fffbce4217d3, 0x3fc9f40a2877ee4e,
      0x3fc9008205ff1d82, 0x3fc8476f2a5a469d},
     50000, 35, 4546, 469,
     1662, 1649, 1338, 370, 0, 0,
     1338, 370, 0, 486004},
    {kWriteHeavy, 64, 1.024, kAllBank, kClosed, kFrFcfs,
     {37832, 41904, 39820, 38327},
     {0x3fd35eb7457c0b13, 0x3fd57470eb24a6a8,
      0x3fd463497b7414a5, 0x3fd39f98b71b8aa0},
     50000, 57, 7298, 2249,
     4828, 4825, 2142, 2204, 0, 0,
     2142, 2204, 0, 411361},
    {kWriteHeavy, 64, 1.024, kAllBank, kClosed, kFcfs,
     {30002, 30769, 28174, 27580},
     {0x3fceb8d823422468, 0x3fcf81e8a2ec28b3,
      0x3fccd9a52263d817, 0x3fcc3dee78183f92},
     50000, 43, 5344, 904,
     2366, 2364, 1570, 776, 0, 0,
     1570, 776, 0, 463147},
    {kWriteHeavy, 64, 1.024, kPerBank, kOpen, kFrFcfs,
     {37587, 40967, 38796, 40095},
     {0x3fd33e9a6f826edb, 0x3fd4f9a06a6e32e4,
      0x3fd3dd11be6e6538, 0x3fd48754f3775b81},
     50000, 60, 7275, 2245,
     4619, 4608, 2130, 2172, 0, 2,
     2130, 2172, 0, 426176},
    {kWriteHeavy, 64, 1.024, kPerBank, kOpen, kFcfs,
     {24211, 24954, 24148, 23710},
     {0x3fc8cac4b4d056c5, 0x3fc98d8a979e16d7,
      0x3fc8ba40d90e23af, 0x3fc8476f2a5a469d},
     50000, 34, 4513, 454,
     1636, 1621, 1326, 354, 0, 2,
     1326, 354, 0, 485448},
    {kWriteHeavy, 64, 1.024, kPerBank, kClosed, kFrFcfs,
     {39954, 41306, 39956, 37618},
     {0x3fd474d9c6b0531a, 0x3fd5260f5e41d4b7,
      0x3fd4751ce28ed5f1, 0x3fd342aa9f7b5aea},
     50000, 58, 7367, 2299,
     4865, 4861, 2169, 2259, 0, 2,
     2169, 2259, 0, 411005},
    {kWriteHeavy, 64, 1.024, kPerBank, kClosed, kFcfs,
     {29345, 29658, 28006, 26711},
     {0x3fce0c9d9d3458cd, 0x3fce5eaab042528b,
      0x3fccad9ad85dfa87, 0x3fcb5a20ddc61954},
     50000, 42, 5227, 842,
     2287, 2285, 1530, 734, 0, 2,
     1530, 734, 0, 459140},
    {kWriteHeavy, 64, 0.0, kAllBank, kOpen, kFrFcfs,
     {37190, 40829, 39740, 40095},
     {0x3fd30a915379fa98, 0x3fd4e789e774eebf,
      0x3fd458cd20afa2f0, 0x3fd48754f3775b81},
     50000, 59, 7290, 2253,
     4649, 4638, 2141, 2194, 0, 0,
     2141, 2194, 0, 428952},
    {kWriteHeavy, 64, 0.0, kAllBank, kOpen, kFcfs,
     {24414, 25345, 24416, 23710},
     {0x3fc8fffbce4217d3, 0x3fc9f40a2877ee4e,
      0x3fc9008205ff1d82, 0x3fc8476f2a5a469d},
     50000, 35, 4546, 469,
     1662, 1649, 1338, 370, 0, 0,
     1338, 370, 0, 486004},
    {kWriteHeavy, 64, 0.0, kAllBank, kClosed, kFrFcfs,
     {37832, 41904, 39820, 38327},
     {0x3fd35eb7457c0b13, 0x3fd57470eb24a6a8,
      0x3fd463497b7414a5, 0x3fd39f98b71b8aa0},
     50000, 57, 7298, 2249,
     4828, 4825, 2142, 2204, 0, 0,
     2142, 2204, 0, 411361},
    {kWriteHeavy, 64, 0.0, kAllBank, kClosed, kFcfs,
     {30002, 30769, 28174, 27580},
     {0x3fceb8d823422468, 0x3fcf81e8a2ec28b3,
      0x3fccd9a52263d817, 0x3fcc3dee78183f92},
     50000, 43, 5344, 904,
     2366, 2364, 1570, 776, 0, 0,
     1570, 776, 0, 463147},
    {kWriteHeavy, 64, 0.0, kPerBank, kOpen, kFrFcfs,
     {37190, 40829, 39740, 40095},
     {0x3fd30a915379fa98, 0x3fd4e789e774eebf,
      0x3fd458cd20afa2f0, 0x3fd48754f3775b81},
     50000, 59, 7290, 2253,
     4649, 4638, 2141, 2194, 0, 0,
     2141, 2194, 0, 428952},
    {kWriteHeavy, 64, 0.0, kPerBank, kOpen, kFcfs,
     {24414, 25345, 24416, 23710},
     {0x3fc8fffbce4217d3, 0x3fc9f40a2877ee4e,
      0x3fc9008205ff1d82, 0x3fc8476f2a5a469d},
     50000, 35, 4546, 469,
     1662, 1649, 1338, 370, 0, 0,
     1338, 370, 0, 486004},
    {kWriteHeavy, 64, 0.0, kPerBank, kClosed, kFrFcfs,
     {37832, 41904, 39820, 38327},
     {0x3fd35eb7457c0b13, 0x3fd57470eb24a6a8,
      0x3fd463497b7414a5, 0x3fd39f98b71b8aa0},
     50000, 57, 7298, 2249,
     4828, 4825, 2142, 2204, 0, 0,
     2142, 2204, 0, 411361},
    {kWriteHeavy, 64, 0.0, kPerBank, kClosed, kFcfs,
     {30002, 30769, 28174, 27580},
     {0x3fceb8d823422468, 0x3fcf81e8a2ec28b3,
      0x3fccd9a52263d817, 0x3fcc3dee78183f92},
     50000, 43, 5344, 904,
     2366, 2364, 1570, 776, 0, 0,
     1570, 776, 0, 463147},
};
// clang-format on

TEST(System, GoldenStatistics)
{
    ASSERT_EQ(std::size(kGolden), 144u);
    const std::vector<Trace> traces[] = {goldenTraces(kMix0),
                                         goldenTraces(kMix1),
                                         goldenTraces(kWriteHeavy)};
    for (const GoldenCase &g : kGolden) {
        SCOPED_TRACE(describe(g));
        System sys(goldenConfig(g), traces[g.load]);
        sys.run(kGoldenCycles);
        SystemStats s = sys.stats();
        ASSERT_EQ(s.coreInsts.size(), 4u);
        ASSERT_EQ(s.coreIpc.size(), 4u);
        for (size_t c = 0; c < 4; ++c) {
            EXPECT_EQ(s.coreInsts[c], g.insts[c]) << "core " << c;
            EXPECT_EQ(std::bit_cast<uint64_t>(s.coreIpc[c]), g.ipcBits[c])
                << "core " << c;
        }
        EXPECT_EQ(s.memCycles, g.memCycles);
        EXPECT_EQ(s.llc.hits, g.llcHits);
        EXPECT_EQ(s.llc.misses, g.llcMisses);
        EXPECT_EQ(s.llc.writebacks, g.llcWritebacks);
        const CommandCounts &c = s.channels.commands;
        EXPECT_EQ(c.act, g.act);
        EXPECT_EQ(c.pre, g.pre);
        EXPECT_EQ(c.rd, g.rd);
        EXPECT_EQ(c.wr, g.wr);
        EXPECT_EQ(c.refab, g.refab);
        EXPECT_EQ(c.refpb, g.refpb);
        EXPECT_EQ(s.channels.readsServed, g.readsServed);
        EXPECT_EQ(s.channels.writesServed, g.writesServed);
        EXPECT_EQ(s.channels.refreshStallCycles, g.refreshStallCycles);
        EXPECT_EQ(s.channels.readLatencySum, g.readLatencySum);
    }
}

} // namespace
} // namespace sim
} // namespace reaper
