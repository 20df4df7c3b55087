/**
 * @file
 * Tests for the SoftMC-like host interface: I/O cost accounting,
 * chamber integration, and command tracing.
 */

#include <gtest/gtest.h>

#include "testbed/softmc_host.h"

namespace reaper {
namespace testbed {
namespace {

dram::ModuleConfig
smallModule()
{
    dram::ModuleConfig cfg;
    cfg.numChips = 2;
    cfg.chipCapacityBits = 512ull * 1024 * 1024; // 64 MB each
    cfg.seed = 1;
    cfg.envelope = {2.5, 50.0};
    return cfg;
}

HostConfig
instantHost()
{
    HostConfig h;
    h.useChamber = false;
    return h;
}

TEST(SoftMcHost, IoTimeScalesWithCapacity)
{
    dram::DramModule m(smallModule());
    SoftMcHost host(m, instantHost());
    // 2 chips x 64 MB = 128 MB = 0.125 GB -> 0.0625 * 0.125 s each way.
    EXPECT_NEAR(host.fullModuleIoTime(), 0.0625 * 0.125, 1e-12);
}

TEST(SoftMcHost, PaperIoAnchorTwoGBTakes125ms)
{
    // Section 6.1.1: read/write of 2 GB takes ~0.125 s each way.
    dram::ModuleConfig cfg = smallModule();
    cfg.numChips = 1;
    cfg.chipCapacityBits = 16ull * 1024 * 1024 * 1024; // 2 GB
    cfg.envelope = {1.2, 46.0}; // keep the population small
    dram::DramModule m(cfg);
    SoftMcHost host(m, instantHost());
    EXPECT_NEAR(host.fullModuleIoTime(), 0.125, 1e-12);
}

TEST(SoftMcHost, WriteAdvancesTimeByIoCost)
{
    dram::DramModule m(smallModule());
    SoftMcHost host(m, instantHost());
    Seconds before = host.now();
    host.writeAll(dram::DataPattern::Solid0);
    EXPECT_NEAR(host.now() - before, host.fullModuleIoTime(), 1e-12);
    EXPECT_NEAR(host.ioTime(), host.fullModuleIoTime(), 1e-12);
}

TEST(SoftMcHost, ReadAdvancesTimeAndAccounts)
{
    dram::DramModule m(smallModule());
    SoftMcHost host(m, instantHost());
    host.writeAll(dram::DataPattern::Solid0);
    host.readAndCompareAll();
    EXPECT_NEAR(host.ioTime(), 2.0 * host.fullModuleIoTime(), 1e-12);
}

TEST(SoftMcHost, WaitAdvancesExactly)
{
    dram::DramModule m(smallModule());
    SoftMcHost host(m, instantHost());
    host.wait(1.5);
    EXPECT_NEAR(host.now(), 1.5, 1e-12);
}

TEST(SoftMcHost, InstantTemperatureWithoutChamber)
{
    dram::DramModule m(smallModule());
    SoftMcHost host(m, instantHost());
    Seconds before = host.now();
    host.setAmbient(48.0);
    EXPECT_EQ(host.now(), before); // no settle time
    EXPECT_EQ(m.chip(0).temperature(), 48.0);
    EXPECT_EQ(host.ambient(), 48.0);
}

TEST(SoftMcHost, ChamberSettleTakesTimeAndTracksSetpoint)
{
    dram::DramModule m(smallModule());
    HostConfig cfg;
    cfg.useChamber = true;
    SoftMcHost host(m, cfg);
    host.setAmbient(45.0);
    EXPECT_GT(host.now(), 0.0); // settling consumed virtual time
    EXPECT_NEAR(m.chip(0).temperature(), 45.0, 0.5);
}

TEST(SoftMcHost, ChamberJittersWithinBand)
{
    dram::DramModule m(smallModule());
    HostConfig cfg;
    cfg.useChamber = true;
    SoftMcHost host(m, cfg);
    host.setAmbient(45.0);
    double lo = 100.0, hi = 0.0;
    for (int i = 0; i < 50; ++i) {
        host.wait(10.0);
        lo = std::min(lo, m.chip(0).temperature());
        hi = std::max(hi, m.chip(0).temperature());
    }
    EXPECT_GT(hi - lo, 0.0);  // some jitter exists
    EXPECT_LT(hi - lo, 1.0);  // but bounded
}

TEST(SoftMcHost, AlgorithmOneRoundFindsFailures)
{
    dram::ModuleConfig mc = smallModule();
    mc.chipCapacityBits = 4ull * 1024 * 1024 * 1024; // 512 MB
    mc.numChips = 1;
    dram::DramModule m(mc);
    SoftMcHost host(m, instantHost());
    host.setAmbient(45.0);
    host.writeAll(dram::DataPattern::Random);
    host.disableRefresh();
    host.wait(2.0);
    host.enableRefresh();
    auto fails = host.readAndCompareAll();
    EXPECT_GT(fails.size(), 0u);
}

TEST(SoftMcHost, TraceRecordsCommands)
{
    dram::DramModule m(smallModule());
    HostConfig cfg = instantHost();
    cfg.recordTrace = true;
    SoftMcHost host(m, cfg);
    host.setAmbient(45.0);
    host.writeAll(dram::DataPattern::Checkerboard);
    host.disableRefresh();
    host.wait(0.5);
    host.enableRefresh();
    host.hammer({3, 5, 7}, 4096);
    host.readAndCompareAll();
    ASSERT_EQ(host.trace().size(), 7u);
    EXPECT_EQ(host.trace()[0].kind, CommandKind::SetAmbient);
    EXPECT_EQ(host.trace()[1].kind, CommandKind::WritePattern);
    EXPECT_EQ(host.trace()[2].kind, CommandKind::DisableRefresh);
    EXPECT_EQ(host.trace()[3].kind, CommandKind::Wait);
    EXPECT_DOUBLE_EQ(host.trace()[3].param, 0.5);
    EXPECT_EQ(host.trace()[4].kind, CommandKind::EnableRefresh);
    // One hammer command carrying the total activation count.
    EXPECT_EQ(host.trace()[5].kind, CommandKind::Hammer);
    EXPECT_DOUBLE_EQ(host.trace()[5].param, 3 * 4096.0);
    EXPECT_EQ(host.trace()[6].kind, CommandKind::ReadCompare);
    host.clearTrace();
    EXPECT_TRUE(host.trace().empty());
}

TEST(SoftMcHost, RestoreCostsOneWritePass)
{
    dram::DramModule m(smallModule());
    SoftMcHost host(m, instantHost());
    host.writeAll(dram::DataPattern::Solid0);
    Seconds before = host.now();
    host.restoreAll();
    EXPECT_NEAR(host.now() - before, host.fullModuleIoTime(), 1e-12);
    EXPECT_NEAR(host.ioTime(), 2.0 * host.fullModuleIoTime(), 1e-12);
}

TEST(SoftMcHost, RestoreClearsAccumulatedFailures)
{
    dram::ModuleConfig mc = smallModule();
    mc.chipCapacityBits = 4ull * 1024 * 1024 * 1024; // 512 MB
    mc.numChips = 1;
    dram::DramModule m(mc);
    SoftMcHost host(m, instantHost());
    host.setAmbient(45.0);
    host.writeAll(dram::DataPattern::Random);
    host.disableRefresh();
    host.wait(2.0);
    host.enableRefresh();
    ASSERT_GT(host.readAndCompareAll().size(), 0u);
    host.restoreAll();
    EXPECT_TRUE(host.readAndCompareAll().empty());
}

TEST(SoftMcHost, RestoreRecordedInTrace)
{
    dram::DramModule m(smallModule());
    HostConfig cfg = instantHost();
    cfg.recordTrace = true;
    SoftMcHost host(m, cfg);
    host.writeAll(dram::DataPattern::Solid0);
    host.restoreAll();
    ASSERT_EQ(host.trace().size(), 2u);
    EXPECT_EQ(host.trace()[1].kind, CommandKind::Restore);
}

TEST(SoftMcHost, TraceDisabledByDefault)
{
    dram::DramModule m(smallModule());
    SoftMcHost host(m, instantHost());
    host.wait(1.0);
    EXPECT_TRUE(host.trace().empty());
}

} // namespace
} // namespace testbed
} // namespace reaper
