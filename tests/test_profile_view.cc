/**
 * @file
 * Tests for profiling::ProfileView — the lazy, block-indexed v2 read
 * handle. Covers the laziness contract (point and range queries
 * decode at most one block, memoized), equivalence with the eager
 * reader, the corruption story — exhaustive truncation and bit-flip
 * sweeps must surface as typed errors, never as a wrong answer, for a
 * view over a buffer and for one that preads a file — and the
 * lifetime rule that a view keeps reading the file it opened after a
 * store renames a new one over its key.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <vector>

#include "campaign/profile_store.h"
#include "common/rng.h"
#include "profiling/profile_binary.h"
#include "profiling/profile_io.h"
#include "profiling/profile_view.h"

namespace reaper {
namespace profiling {
namespace {

using common::ErrorCategory;
using common::Expected;

RetentionProfile
randomProfile(uint64_t seed, size_t cells, uint32_t chips = 4,
              uint64_t addrSpace = 1ull << 40)
{
    Rng rng(seed);
    std::vector<dram::ChipFailure> v;
    v.reserve(cells);
    for (size_t i = 0; i < cells; ++i)
        v.push_back({static_cast<uint32_t>(rng.uniformInt(chips)),
                     rng.uniformInt(addrSpace)});
    RetentionProfile p(Conditions{1.024, 45.0});
    p.add(v);
    return p;
}

/** Serialize with small blocks so files have many index entries. */
std::string
binaryOf(const RetentionProfile &p, uint32_t blockCells = 8)
{
    std::stringstream os;
    BinaryProfileWriter writer(os, p.conditions(), p.size(),
                               blockCells);
    for (const dram::ChipFailure &f : p.cells())
        writer.append(f);
    EXPECT_TRUE(writer.finish().hasValue());
    return os.str();
}

std::string
writeTemp(const std::string &bytes, const char *name)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(os.good());
    return path;
}

/** The two ways a view reads its bytes. */
enum class Backing
{
    Buffer, ///< fromBuffer: an owned in-memory copy
    File,   ///< open: pread from a descriptor the view holds
};
constexpr std::initializer_list<Backing> kBackings = {Backing::Buffer,
                                                      Backing::File};

const char *
backingName(Backing b)
{
    return b == Backing::Buffer ? "fromBuffer" : "open";
}

/** A view over `bytes` through `backing`. The file is unlinked right
 *  after open: the view keeps reading the inode it opened, and the
 *  lengths and offsets it reads come from the (possibly hostile)
 *  bytes themselves. */
Expected<ProfileView>
viewOf(Backing backing, std::string bytes)
{
    if (backing == Backing::Buffer)
        return ProfileView::fromBuffer(std::move(bytes));
    std::string path = writeTemp(bytes, "view_sweep.profile");
    Expected<ProfileView> view = ProfileView::open(path);
    std::remove(path.c_str());
    return view;
}

TEST(ProfileView, OpenExposesHeaderAndIndexShape)
{
    RetentionProfile p = randomProfile(1, 100);
    std::string path = writeTemp(binaryOf(p), "view_shape.profile");
    Expected<ProfileView> view = ProfileView::open(path);
    ASSERT_TRUE(view.hasValue()) << view.error().describe();
    EXPECT_EQ(view.value().cellCount(), 100u);
    EXPECT_EQ(view.value().blockCells(), 8u);
    EXPECT_EQ(view.value().blockCount(), 13u); // ceil(100/8)
    EXPECT_DOUBLE_EQ(view.value().conditions().refreshInterval,
                     1.024);
    EXPECT_EQ(view.value().blocksDecoded(), 0u)
        << "open must not decode any block";
    std::remove(path.c_str());
}

TEST(ProfileView, ContainsAgreesWithEagerReaderAndIsLazy)
{
    RetentionProfile p = randomProfile(2, 500);
    Expected<ProfileView> view =
        ProfileView::fromBuffer(binaryOf(p));
    ASSERT_TRUE(view.hasValue()) << view.error().describe();

    // Every present cell is found, each point lookup decoding at
    // most one new block.
    uint64_t decoded = 0;
    for (const dram::ChipFailure &f : p.cells()) {
        Expected<bool> hit = view.value().contains(f);
        ASSERT_TRUE(hit.hasValue()) << hit.error().describe();
        EXPECT_TRUE(hit.value());
        uint64_t now = view.value().blocksDecoded();
        EXPECT_LE(now, decoded + 1);
        decoded = now;
    }
    // All blocks are memoized by now: re-querying decodes nothing.
    uint64_t afterAll = view.value().blocksDecoded();
    for (const dram::ChipFailure &f : p.cells())
        EXPECT_TRUE(view.value().contains(f).value());
    EXPECT_EQ(view.value().blocksDecoded(), afterAll);

    // Absent cells answer false (decoding at most one block each).
    Rng rng(77);
    for (int i = 0; i < 200; ++i) {
        dram::ChipFailure probe{
            static_cast<uint32_t>(rng.uniformInt(4)),
            rng.uniformInt(1ull << 40)};
        Expected<bool> hit = view.value().contains(probe);
        ASSERT_TRUE(hit.hasValue());
        EXPECT_EQ(hit.value(), p.contains(probe));
    }
}

TEST(ProfileView, RangeQueriesAnswerFromIndexAlone)
{
    RetentionProfile p = randomProfile(3, 400);
    Expected<ProfileView> view =
        ProfileView::fromBuffer(binaryOf(p));
    ASSERT_TRUE(view.hasValue());
    const auto &cells = p.cells();

    // A range spanning several blocks is provably non-empty from the
    // index: zero decodes.
    Expected<bool> wide =
        view.value().anyInRange(cells.front(), cells.back());
    ASSERT_TRUE(wide.hasValue());
    EXPECT_TRUE(wide.value());
    EXPECT_EQ(view.value().blocksDecoded(), 0u);

    // A range beyond every key is empty, also without decoding.
    dram::ChipFailure past{0xFFFFFFFFu, ~0ull};
    if (cells.back() < past) {
        dram::ChipFailure lo{cells.back().chip,
                             cells.back().addr + 1};
        Expected<bool> none = view.value().anyInRange(lo, past);
        ASSERT_TRUE(none.hasValue());
        EXPECT_FALSE(none.value());
        EXPECT_EQ(view.value().blocksDecoded(), 0u);
    }

    // An interior singleton range needs (at most) one decode and
    // agrees with the eager set.
    Expected<bool> one =
        view.value().anyInRange(cells[5], cells[5]);
    ASSERT_TRUE(one.hasValue());
    EXPECT_TRUE(one.value());
    EXPECT_LE(view.value().blocksDecoded(), 1u);
}

TEST(ProfileView, MaterializeMatchesEagerReaderByteForByte)
{
    const size_t sizes[] = {0, 1, 7, 8, 9, 100, 500};
    for (size_t n : sizes) {
        RetentionProfile p = randomProfile(40 + n, n);
        std::string bytes = binaryOf(p);
        Expected<ProfileView> view = ProfileView::fromBuffer(bytes);
        ASSERT_TRUE(view.hasValue()) << view.error().describe();
        Expected<RetentionProfile> mat = view.value().materialize();
        ASSERT_TRUE(mat.hasValue()) << mat.error().describe();
        EXPECT_EQ(mat.value().cells(), p.cells());
        // Re-serializing the materialized profile reproduces the
        // exact input bytes (same deterministic writer).
        EXPECT_EQ(binaryOf(mat.value()), bytes);
    }
}

TEST(ProfileView, OpenReportsIoForMissingFile)
{
    Expected<ProfileView> view =
        ProfileView::open("/nonexistent/view.profile");
    ASSERT_FALSE(view.hasValue());
    EXPECT_EQ(view.error().category, ErrorCategory::Io);
    EXPECT_NE(view.error().message.find("/nonexistent/view.profile"),
              std::string::npos);
}

// Every strict prefix of a valid file must fail to open or fail to
// materialize — laziness must not turn truncation into a silently
// smaller profile. (The index + footer live at the END of the file,
// so every truncation clips them and open() itself must object.)
TEST(ProfileView, EveryTruncationIsDetected)
{
    RetentionProfile p = randomProfile(5, 37);
    const std::string bytes = binaryOf(p);
    for (Backing backing : kBackings) {
        SCOPED_TRACE(backingName(backing));
        for (size_t len = 0; len < bytes.size(); ++len) {
            Expected<ProfileView> view =
                viewOf(backing, bytes.substr(0, len));
            if (!view.hasValue()) {
                EXPECT_TRUE(view.error().category ==
                                ErrorCategory::Corrupt ||
                            view.error().category == ErrorCategory::Parse)
                    << "prefix " << len << ": "
                    << toString(view.error().category);
                continue;
            }
            Expected<RetentionProfile> mat = view.value().materialize();
            ASSERT_FALSE(mat.hasValue())
                << "prefix of " << len << " bytes materialized";
            EXPECT_EQ(mat.error().category, ErrorCategory::Corrupt);
        }
    }
}

// Every single-bit flip in the index section and footer must be
// detected: the index and the footer's fixed fields are CRC-covered
// and fail at open (index corruption may never redirect a query to
// the wrong block); only the footer's whole-file-CRC field itself is
// deferred to materialize(), which verifies it.
TEST(ProfileView, EveryIndexAndFooterBitFlipIsDetectedAtOpen)
{
    RetentionProfile p = randomProfile(6, 37);
    const std::string bytes = binaryOf(p);
    const uint32_t blocks = 5; // ceil(37/8)
    size_t indexStart = bytes.size() - kBinaryFooterBytes -
                        indexSectionBytes(blocks);
    for (Backing backing : kBackings) {
        SCOPED_TRACE(backingName(backing));
        for (size_t i = indexStart; i < bytes.size(); ++i) {
            for (int bit = 0; bit < 8; ++bit) {
                std::string mutated = bytes;
                mutated[i] = static_cast<char>(
                    static_cast<uint8_t>(mutated[i]) ^ (1u << bit));
                Expected<ProfileView> view =
                    viewOf(backing, std::move(mutated));
                if (!view.hasValue())
                    continue;
                // Only the footer's trailing fileCrc word may survive an
                // open, and materialize() must then reject it.
                EXPECT_GE(i, bytes.size() - 4)
                    << "bit " << bit << " of byte " << i
                    << " flipped but the view opened";
                Expected<RetentionProfile> mat =
                    view.value().materialize();
                ASSERT_FALSE(mat.hasValue())
                    << "bit " << bit << " of byte " << i
                    << " flipped but materialize succeeded";
                EXPECT_EQ(mat.error().category, ErrorCategory::Corrupt);
            }
        }
    }
}

// Bit flips in block payloads are caught lazily: open succeeds (the
// damaged block is untouched), the query that lands on it reports
// Corrupt, and no flip anywhere ever yields a wrong answer.
TEST(ProfileView, BlockBitFlipsSurfaceLazilyAsCorrupt)
{
    RetentionProfile p = randomProfile(7, 37);
    const std::string bytes = binaryOf(p);
    size_t blocksEnd = bytes.size() - kBinaryFooterBytes -
                       indexSectionBytes(5);
    for (Backing backing : kBackings) {
        SCOPED_TRACE(backingName(backing));
        for (size_t i = kBinaryHeaderBytes; i < blocksEnd; ++i) {
            std::string mutated = bytes;
            mutated[i] = static_cast<char>(
                static_cast<uint8_t>(mutated[i]) ^ 0x10);
            Expected<ProfileView> view =
                viewOf(backing, std::move(mutated));
            if (!view.hasValue())
                continue; // structural damage caught eagerly: fine
            bool sawError = false;
            for (const dram::ChipFailure &f : p.cells()) {
                Expected<bool> hit = view.value().contains(f);
                if (!hit.hasValue()) {
                    EXPECT_EQ(hit.error().category,
                              ErrorCategory::Corrupt);
                    sawError = true;
                    break;
                }
                EXPECT_TRUE(hit.value())
                    << "flip at byte " << i << " gave a wrong answer";
            }
            EXPECT_TRUE(sawError)
                << "flip at byte " << i << " was never detected";
            Expected<RetentionProfile> mat = view.value().materialize();
            EXPECT_FALSE(mat.hasValue())
                << "flip at byte " << i << " materialized";
        }
    }
}

TEST(ProfileView, EmptyProfileViewAnswersWithoutDecoding)
{
    RetentionProfile p(Conditions{0.512, 50.0});
    Expected<ProfileView> view =
        ProfileView::fromBuffer(binaryOf(p));
    ASSERT_TRUE(view.hasValue()) << view.error().describe();
    EXPECT_EQ(view.value().blockCount(), 0u);
    EXPECT_FALSE(view.value().contains({0, 0}).value());
    EXPECT_FALSE(
        view.value().anyInRange({0, 0}, {9, 9}).value());
    EXPECT_EQ(view.value().blocksDecoded(), 0u);
    EXPECT_TRUE(view.value().materialize().value().empty());
}

/** Expect `view` to answer exactly `want`: every cell of it present,
 *  every cell of `other` that `want` lacks absent. */
void
expectAnswers(const ProfileView &view, const RetentionProfile &want,
              const RetentionProfile &other)
{
    for (const dram::ChipFailure &f : want.cells()) {
        Expected<bool> hit = view.contains(f);
        ASSERT_TRUE(hit.hasValue()) << hit.error().describe();
        ASSERT_TRUE(hit.value());
    }
    for (const dram::ChipFailure &f : other.cells()) {
        Expected<bool> hit = view.contains(f);
        ASSERT_TRUE(hit.hasValue()) << hit.error().describe();
        ASSERT_EQ(hit.value(), want.contains(f));
    }
}

/** `p` with every 50th cell moved: a VRT-style drift of 2%. */
RetentionProfile
drifted(const RetentionProfile &p, uint64_t seed)
{
    Rng rng(seed);
    std::vector<dram::ChipFailure> cells = p.cells();
    for (size_t i = 0; i < cells.size(); i += 50)
        cells[i].addr = rng.uniformInt(1ull << 40);
    RetentionProfile out(p.conditions());
    out.add(cells);
    return out;
}

// A view reads the inode it opened. ProfileStore::commit renames a
// new file over the key and compaction renames the compacted chain
// over the base, yet an open view keeps answering every cell of the
// profile it opened — including from blocks it first decodes after
// the rename.
TEST(ProfileView, OpenViewKeepsItsProfileAcrossCommitAndCompaction)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(::testing::TempDir()) / "reaper_view_rename";
    fs::remove_all(dir);
    campaign::ProfileStore store(dir.string());
    const std::string key =
        campaign::ProfileStore::profileKey("chip-0", {1.024, 45.0});

    // Five default-size blocks; the view decodes only the first
    // before the rename.
    RetentionProfile first = randomProfile(11, 5000);
    store.commit(key, first);
    Expected<ProfileView> old = store.openView(key);
    ASSERT_TRUE(old.hasValue()) << old.error().describe();
    ASSERT_EQ(old.value().blockCount(), 5u);
    EXPECT_TRUE(old.value().contains(first.cells().front()).value());
    EXPECT_EQ(old.value().blocksDecoded(), 1u);

    RetentionProfile second = randomProfile(12, 5000);
    store.commit(key, second);
    expectAnswers(old.value(), first, second);
    EXPECT_EQ(old.value().blocksDecoded(), 5u);

    Expected<ProfileView> mid = store.openView(key);
    ASSERT_TRUE(mid.hasValue()) << mid.error().describe();
    EXPECT_TRUE(mid.value().contains(second.cells().back()).value());
    EXPECT_EQ(mid.value().blocksDecoded(), 1u);

    RetentionProfile third = drifted(second, 13);
    store.commitDelta(key, third);
    ASSERT_EQ(store.entries().at(0).deltas, 1u);
    Expected<ProfileView> compacted = store.openView(key);
    ASSERT_TRUE(compacted.hasValue())
        << compacted.error().describe();
    ASSERT_EQ(store.entries().at(0).deltas, 0u);
    expectAnswers(mid.value(), second, third);
    expectAnswers(compacted.value(), third, second);
    expectAnswers(old.value(), first, third);
    fs::remove_all(dir);
}

// The streaming reader cross-checks the index against the blocks it
// decodes, so a file whose index disagrees with its (individually
// valid) blocks is rejected on the eager path too.
TEST(ProfileView, ReadProfileFileRoutesThroughViewAndAgrees)
{
    RetentionProfile p = randomProfile(8, 200);
    std::string path =
        writeTemp(binaryOf(p, kDefaultBlockCells), "view_rt.profile");
    Expected<RetentionProfile> loaded = readProfileFile(path);
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    EXPECT_EQ(loaded.value().cells(), p.cells());
    std::remove(path.c_str());
}

} // namespace
} // namespace profiling
} // namespace reaper
