/**
 * @file
 * Tests for Ramulator-style trace serialization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "sim/trace_io.h"
#include "workload/synthetic.h"

namespace reaper {
namespace sim {
namespace {

Trace
sampleTrace()
{
    Trace t;
    t.name = "sample";
    t.entries = {{10, 0x1000, false},
                 {0, 0xdeadbeef00ull, true},
                 {999, 64, false}};
    return t;
}

TEST(TraceIo, RoundTrip)
{
    Trace original = sampleTrace();
    std::stringstream ss;
    saveTrace(original, ss);
    Trace loaded = loadTrace(ss);
    EXPECT_EQ(loaded.name, "sample");
    ASSERT_EQ(loaded.entries.size(), original.entries.size());
    for (size_t i = 0; i < original.entries.size(); ++i) {
        EXPECT_EQ(loaded.entries[i].bubbles,
                  original.entries[i].bubbles);
        EXPECT_EQ(loaded.entries[i].addr, original.entries[i].addr);
        EXPECT_EQ(loaded.entries[i].isWrite,
                  original.entries[i].isWrite);
    }
}

TEST(TraceIo, FormatExample)
{
    std::stringstream ss;
    saveTrace(sampleTrace(), ss);
    std::string text = ss.str();
    EXPECT_NE(text.find("# trace: sample"), std::string::npos);
    EXPECT_NE(text.find("10 R 0x1000"), std::string::npos);
    EXPECT_NE(text.find("0 W 0xdeadbeef00"), std::string::npos);
}

TEST(TraceIo, ParsesHandWrittenRamulatorStyle)
{
    std::stringstream ss("# a comment\n"
                         "\n"
                         "5 R 0x100\n"
                         "3 w 256\n" // decimal + lowercase op
                         "0 R 0X40\n");
    Trace t = loadTrace(ss);
    ASSERT_EQ(t.entries.size(), 3u);
    EXPECT_EQ(t.entries[0].addr, 0x100u);
    EXPECT_EQ(t.entries[1].addr, 256u);
    EXPECT_TRUE(t.entries[1].isWrite);
    EXPECT_EQ(t.entries[2].addr, 0x40u);
}

TEST(TraceIo, RejectsMalformedLines)
{
    Trace t;
    std::string error;
    std::stringstream bad_op("1 X 0x10\n");
    EXPECT_FALSE(tryLoadTrace(bad_op, &t, &error));
    EXPECT_NE(error.find("bad op"), std::string::npos);

    std::stringstream bad_addr("1 R zzz\n");
    EXPECT_FALSE(tryLoadTrace(bad_addr, &t, &error));
    EXPECT_NE(error.find("bad address"), std::string::npos);

    std::stringstream missing("42\n");
    EXPECT_FALSE(tryLoadTrace(missing, &t, &error));
    EXPECT_NE(error.find("expected"), std::string::npos);

    // Partially numeric, signed, digit-less, or trailing junk: each
    // rejected with its line number, after a good first line.
    for (const char *bad : {"10 R 0x100zz", "10 R -5", "10 R 0x",
                            "10 R 0x100 junk"}) {
        SCOPED_TRACE(bad);
        std::stringstream ss(std::string("1 R 0x40\n") + bad + "\n");
        error.clear();
        EXPECT_FALSE(tryLoadTrace(ss, &t, &error));
        EXPECT_EQ(error.rfind("line 2: ", 0), 0u) << error;
    }
}

TEST(TraceIo, FileRoundTripAndMissingFile)
{
    std::string path = ::testing::TempDir() + "reaper_trace_test.txt";
    saveTraceFile(sampleTrace(), path);
    Trace loaded = loadTraceFile(path);
    EXPECT_EQ(loaded.entries.size(), 3u);
    std::remove(path.c_str());
    EXPECT_EXIT(loadTraceFile("/nonexistent/trace.txt"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceIo, SyntheticTraceSurvivesRoundTrip)
{
    const workload::BenchmarkSpec &spec =
        workload::benchmarkByName("gcc");
    Trace original = workload::generateTrace(spec, 2000, 5);
    std::stringstream ss;
    saveTrace(original, ss);
    Trace loaded = loadTrace(ss);
    ASSERT_EQ(loaded.entries.size(), original.entries.size());
    EXPECT_NEAR(loaded.apki(), original.apki(), 1e-9);
    EXPECT_EQ(loaded.instructionCount(), original.instructionCount());
}

TEST(TraceIo, EmptyInputGivesEmptyTrace)
{
    std::stringstream ss("");
    Trace t = loadTrace(ss);
    EXPECT_TRUE(t.entries.empty());
}

} // namespace
} // namespace sim
} // namespace reaper
