/**
 * @file
 * Tests for the FR-FCFS memory controller: command correctness, row
 * buffer behaviour, write draining, and refresh blocking.
 */

#include <gtest/gtest.h>

#include "sim/memctrl.h"

namespace reaper {
namespace sim {
namespace {

MemCtrlConfig
baseConfig()
{
    MemCtrlConfig cfg;
    cfg.timing = lpddr4_3200(8);
    cfg.rowsPerBank = 1024;
    return cfg;
}

/** Tick until the controller drains or max cycles pass. */
Cycle
runUntilIdle(MemoryController &mc, Cycle max_cycles = 1000000)
{
    Cycle start = mc.now();
    while (mc.hasPendingWork() && mc.now() - start < max_cycles)
        mc.tick();
    return mc.now() - start;
}

MemRequest
readReq(uint64_t addr, std::function<void()> done = nullptr)
{
    MemRequest r;
    r.addr = addr;
    r.isWrite = false;
    r.onComplete = std::move(done);
    return r;
}

TEST(MemCtrl, SingleReadCompletesWithActRdLatency)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0; // isolate request timing
    MemoryController mc(cfg);
    bool done = false;
    Cycle done_at = 0;
    ASSERT_TRUE(mc.enqueue(readReq(0, [&]() {
                               done = true;
                           }),
                           DramAddr{0, 0, 5, 0}));
    while (!done)
        mc.tick();
    done_at = mc.now();
    // ACT at ~1, RD at 1+tRCD, data at +tRL+tBURST.
    const TimingParams &t = cfg.timing;
    EXPECT_NEAR(static_cast<double>(done_at),
                static_cast<double>(1 + t.tRCD + t.tRL + t.tBURST), 3.0);
    EXPECT_EQ(mc.stats().commands.act, 1u);
    EXPECT_EQ(mc.stats().commands.rd, 1u);
}

TEST(MemCtrl, RowHitsAvoidExtraActivates)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    MemoryController mc(cfg);
    int done = 0;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(mc.enqueue(readReq(static_cast<uint64_t>(i) * 64,
                                       [&]() { ++done; }),
                               DramAddr{0, 0, 7,
                                        static_cast<uint32_t>(i)}));
    }
    runUntilIdle(mc);
    EXPECT_EQ(done, 8);
    EXPECT_EQ(mc.stats().commands.act, 1u); // one row opening
    EXPECT_EQ(mc.stats().commands.rd, 8u);
    EXPECT_EQ(mc.stats().rowHits(), 7u);
}

TEST(MemCtrl, RowConflictPrecharges)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    MemoryController mc(cfg);
    int done = 0;
    ASSERT_TRUE(mc.enqueue(readReq(0, [&]() { ++done; }),
                           DramAddr{0, 0, 1, 0}));
    ASSERT_TRUE(mc.enqueue(readReq(64, [&]() { ++done; }),
                           DramAddr{0, 0, 2, 0}));
    runUntilIdle(mc);
    EXPECT_EQ(done, 2);
    EXPECT_EQ(mc.stats().commands.act, 2u);
    EXPECT_GE(mc.stats().commands.pre, 1u);
}

TEST(MemCtrl, ClosedPolicyPrechargesEveryAccess)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    cfg.rowPolicy = RowPolicy::Closed;
    MemoryController mc(cfg);
    int done = 0;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(mc.enqueue(readReq(static_cast<uint64_t>(i) * 64,
                                       [&]() { ++done; }),
                               DramAddr{0, 0, 3,
                                        static_cast<uint32_t>(i)}));
    }
    runUntilIdle(mc);
    EXPECT_EQ(done, 4);
    // Requests arrive together, so FR-FCFS may still batch row hits
    // before the auto-precharge closes the row; at minimum the last
    // access closes it.
    EXPECT_GE(mc.stats().commands.pre, 1u);
}

TEST(MemCtrl, BankParallelismFasterThanSameBank)
{
    auto run_case = [](bool same_bank) {
        MemCtrlConfig cfg = baseConfig();
        cfg.refreshWindowScale = 0;
        MemoryController mc(cfg);
        int done = 0;
        for (uint32_t i = 0; i < 4; ++i) {
            DramAddr d{0, same_bank ? 0 : i, i + 10, 0};
            EXPECT_TRUE(mc.enqueue(
                readReq(i * 4096, [&]() { ++done; }), d));
        }
        Cycle cycles = runUntilIdle(mc);
        EXPECT_EQ(done, 4);
        return cycles;
    };
    EXPECT_LT(run_case(false), run_case(true));
}

TEST(MemCtrl, FourActivateWindowHoldsFifthActivate)
{
    // With tRRD short and tFAW long, only the four-activate window
    // holds back the fifth ACT: no other timing threshold expires at
    // that cycle, so a controller that waits for one never issues it.
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    cfg.timing.tRRD = 2;
    cfg.timing.tFAW = 400;
    MemoryController mc(cfg);
    int done = 0;
    for (uint32_t bank = 0; bank < 5; ++bank) {
        ASSERT_TRUE(mc.enqueue(readReq(bank * 64, [&]() { ++done; }),
                               DramAddr{0, bank, 3, 0}));
    }
    Cycle fifth_act = 0;
    while (done < 5 && mc.now() < 10000) {
        Cycle cycle = mc.now();
        mc.tick();
        if (fifth_act == 0 && mc.stats().commands.act == 5)
            fifth_act = cycle;
    }
    EXPECT_EQ(done, 5);
    EXPECT_EQ(fifth_act, cfg.timing.tFAW); // the first ACT is at cycle 0
}

TEST(MemCtrl, WritesArePosted)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    MemoryController mc(cfg);
    bool acked = false;
    MemRequest w;
    w.addr = 0;
    w.isWrite = true;
    w.onComplete = [&]() { acked = true; };
    ASSERT_TRUE(mc.enqueue(w, DramAddr{0, 0, 1, 0}));
    EXPECT_TRUE(acked); // ack at enqueue, before any command issues
    runUntilIdle(mc);
    EXPECT_EQ(mc.stats().commands.wr, 1u);
}

TEST(MemCtrl, QueueCapacityEnforced)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.queueCapacity = 4;
    MemoryController mc(cfg);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(mc.enqueue(readReq(static_cast<uint64_t>(i) * 64),
                               DramAddr{0, 0, 1, 0}));
    }
    EXPECT_FALSE(mc.enqueue(readReq(999), DramAddr{0, 0, 1, 0}));
}

TEST(MemCtrl, RefreshIssuesOnSchedule)
{
    MemCtrlConfig cfg = baseConfig();
    MemoryController mc(cfg);
    for (Cycle i = 0; i < cfg.timing.tREFI * 4 + 100; ++i)
        mc.tick();
    EXPECT_EQ(mc.stats().commands.refab, 4u);
}

TEST(MemCtrl, LongerRefreshIntervalFewerRefreshes)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 16.0; // 1024 ms target
    MemoryController mc(cfg);
    for (Cycle i = 0; i < cfg.timing.tREFI * 64 + 200; ++i)
        mc.tick();
    EXPECT_EQ(mc.stats().commands.refab, 4u); // 64 / 16
}

TEST(MemCtrl, NoRefreshMode)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    MemoryController mc(cfg);
    for (Cycle i = 0; i < cfg.timing.tREFI * 8; ++i)
        mc.tick();
    EXPECT_EQ(mc.stats().commands.refab, 0u);
}

TEST(MemCtrl, RefreshClosesOpenRow)
{
    MemCtrlConfig cfg = baseConfig();
    MemoryController mc(cfg);
    // Open a row just before the refresh deadline.
    ASSERT_TRUE(mc.enqueue(readReq(0), DramAddr{0, 0, 9, 0}));
    runUntilIdle(mc);
    ASSERT_EQ(mc.stats().commands.act, 1u);
    for (Cycle i = 0; i < cfg.timing.tREFI + cfg.timing.tRFCab + 200;
         ++i)
        mc.tick();
    EXPECT_GE(mc.stats().commands.refab, 1u);
    // The open row was precharged so refresh could proceed.
    EXPECT_GE(mc.stats().commands.pre, 1u);
}

TEST(MemCtrl, RefreshDelaysPendingReads)
{
    // A read arriving during tRFC waits; compare its latency against
    // an unobstructed read.
    auto latency_with_refresh = [](bool refresh) {
        MemCtrlConfig cfg = baseConfig();
        cfg.refreshWindowScale = refresh ? 1.0 : 0.0;
        MemoryController mc(cfg);
        // Advance to just after a refresh began.
        for (Cycle i = 0; i < cfg.timing.tREFI + 5; ++i)
            mc.tick();
        bool done = false;
        Cycle start = mc.now();
        EXPECT_TRUE(mc.enqueue(readReq(0, [&]() { done = true; }),
                               DramAddr{0, 0, 1, 0}));
        while (!done)
            mc.tick();
        return mc.now() - start;
    };
    Cycle blocked = latency_with_refresh(true);
    Cycle free_run = latency_with_refresh(false);
    EXPECT_GT(blocked, free_run + baseConfig().timing.tRFCab / 2);
}

TEST(MemCtrl, WriteDrainServesWritesUnderReadPressure)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.refreshWindowScale = 0;
    cfg.queueCapacity = 64;
    cfg.writeDrainHigh = 8;
    cfg.writeDrainLow = 2;
    MemoryController mc(cfg);
    // Saturate the write queue past the high watermark.
    for (uint32_t i = 0; i < 10; ++i) {
        MemRequest w;
        w.addr = i * 64;
        w.isWrite = true;
        ASSERT_TRUE(mc.enqueue(w, DramAddr{0, i % 8, 1, 0}));
    }
    runUntilIdle(mc);
    EXPECT_EQ(mc.stats().commands.wr, 10u);
}

TEST(MemCtrl, ConfigValidation)
{
    MemCtrlConfig cfg = baseConfig();
    cfg.banks = 0;
    EXPECT_DEATH(MemoryController mc(cfg), "banks");
    cfg = baseConfig();
    cfg.writeDrainLow = cfg.writeDrainHigh;
    EXPECT_DEATH(MemoryController mc(cfg), "writeDrain");
    cfg = baseConfig();
    cfg.refreshWindowScale = -1;
    EXPECT_DEATH(MemoryController mc(cfg), "negative");
}

} // namespace
} // namespace sim
} // namespace reaper
