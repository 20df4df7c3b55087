/**
 * @file
 * REAPER-PROFILE v2: the binary on-disk retention-profile format.
 *
 * A profile is the system's central persisted artifact — every
 * ProfileStore load, ProfileCache miss, campaign resume, and
 * serve-daemon cold start deserializes one — so the wire format is
 * built for decode speed and corruption detection rather than
 * diffability (the v1 text format remains for that; see
 * profiling/profile_io.h for the sniffing reader that accepts both).
 *
 * Layout (all integers little-endian; see DESIGN.md §11):
 *
 *   header   8-byte magic (0x89 "RPF2" CR LF 0x1A), u32 version,
 *            u32 block cell capacity, f64 refresh interval (s),
 *            f64 temperature (°C), u64 cell count, u32 CRC32C of the
 *            preceding 40 bytes
 *   blocks   cells sorted by (chip, addr), chunked into blocks of at
 *            most the header's block capacity. Each block: u32 cell
 *            count, u32 payload byte length, the payload, u32 CRC32C
 *            over the 8 length bytes plus the payload. The payload is
 *            LEB128 varints: the block's first cell is encoded raw
 *            (chip, addr); each later cell encodes delta(chip) then —
 *            when the chip changed — a raw addr, otherwise
 *            delta(addr), which is ≥ 1 because cells are strictly
 *            increasing. Blocks decode independently: no state is
 *            carried across block boundaries.
 *   index    footer-resident per-block key-range index: 4-byte magic
 *            ("RPIX"), u32 block count, one fixed 36-byte entry per
 *            block (first cell, last cell, absolute byte offset of
 *            the block frame, cell count), u32 CRC32C over the whole
 *            section. Fixed-size entries mean a reader that has only
 *            the footer can locate the index without touching any
 *            block — the foundation of ProfileView's lazy,
 *            decode-only-what-a-query-touches reads (see
 *            profiling/profile_view.h and DESIGN.md §15).
 *   footer   4-byte end magic ("RPND"), u32 block count, u32 CRC32C
 *            of every byte before the footer (header + blocks +
 *            index).
 *
 * Every byte outside the checksum fields themselves is covered by a
 * CRC32C, so truncation and bit flips surface as
 * common::ErrorCategory::Corrupt instead of a silently wrong profile.
 * The PNG-style magic (high bit set, embedded CRLF) additionally
 * catches 7-bit stripping and newline translation.
 *
 * The writer streams cells in one pass with a reused scratch buffer
 * (no per-cell allocation); the reader decodes block-by-block straight
 * into a caller-provided vector, which readProfileBinary() then moves
 * into RetentionProfile storage without a re-sort
 * (RetentionProfile::adoptSorted).
 */

#ifndef REAPER_PROFILING_PROFILE_BINARY_H
#define REAPER_PROFILING_PROFILE_BINARY_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/expected.h"
#include "profiling/profile.h"

namespace reaper {
namespace profiling {

/** On-disk profile representation (the --profile-format knob). */
enum class ProfileFormat : uint8_t
{
    TextV1,   ///< line-oriented "REAPER-PROFILE v1" (diffable interop)
    BinaryV2, ///< delta-varint "REAPER-PROFILE v2" (default)
    DeltaV2,  ///< delta record vs a base profile (profile_delta.h)
};

const char *toString(ProfileFormat f);

/** Parse "v1"/"text", "v2"/"binary", or "delta"; InvalidConfig
 *  otherwise. */
common::Expected<ProfileFormat>
parseProfileFormat(const std::string &name);

/**
 * CRC32C (Castagnoli); seed 0 for a fresh stream. Forwards to the
 * runtime-dispatched simd::crc32c (hardware CRC instruction where the
 * CPU has one, slicing-by-4 software otherwise or under
 * REAPER_SIMD=scalar); the RFC 3720 vector stays pinned in tests as
 * the cross-variant equivalence oracle.
 */
uint32_t crc32c(uint32_t crc, const void *data, size_t len);

/** First byte of the v2 magic — what the sniffing reader dispatches
 *  on (v1 text begins with ASCII 'R'). */
constexpr uint8_t kBinaryMagicByte = 0x89;

/** Default cells per block: small enough that a corrupt block loses
 *  little locality and a ProfileView point lookup decodes little
 *  (one block is the lookup's cost floor), large enough to amortize
 *  the 12-byte block framing and 36-byte index entry. */
constexpr uint32_t kDefaultBlockCells = 1024;

/**
 * Reader scratch buffers larger than this are released after the block
 * that needed them (and reacquired on demand), so one huge block in a
 * file read long ago cannot pin megabytes under a long-lived reader
 * owner such as serve::ProfileCache. Default-sized blocks stay well
 * under the cap and keep their scratch across blocks. The cap holds on
 * every exit from readBlock, including the Corrupt/truncated error
 * paths.
 */
constexpr size_t kReaderScratchReleaseBytes = 256 * 1024;

/** Fixed section sizes of the v2 layout (bytes). */
constexpr size_t kBinaryHeaderBytes = 44;
constexpr size_t kBinaryFooterBytes = 12;
/** Per-block index entry: first cell (u32+u64), last cell (u32+u64),
 *  u64 block byte offset, u32 cell count. */
constexpr size_t kBinaryIndexEntryBytes = 36;
/** Index magic + u32 block count + trailing u32 CRC32C. */
constexpr size_t kBinaryIndexFixedBytes = 12;

/** Total byte size of the index section for `blocks` blocks. */
constexpr uint64_t indexSectionBytes(uint64_t blocks)
{
    return kBinaryIndexFixedBytes + blocks * kBinaryIndexEntryBytes;
}

/**
 * One entry of the footer-resident block index: the key range a block
 * covers plus where its frame lives, so a point or range query can be
 * routed to (at most a couple of) blocks without decoding anything
 * else. `offset` is absolute from the start of the file; blocks are
 * contiguous, so entry i's frame spans [offset_i, offset_{i+1}) (the
 * last block ends where the index section begins).
 */
struct BlockIndexEntry
{
    dram::ChipFailure first{};
    dram::ChipFailure last{};
    uint64_t offset = 0;
    uint32_t cells = 0;

    bool operator==(const BlockIndexEntry &o) const
    {
        return first == o.first && last == o.last &&
               offset == o.offset && cells == o.cells;
    }
};

/** Decoded v2 header fields. */
struct BinaryHeader
{
    Conditions cond{};
    uint64_t cellCount = 0;
    uint32_t blockCells = 0;
};

/** Decoded v2 footer fields. */
struct BinaryFooter
{
    uint32_t blockCount = 0;
    uint32_t fileCrc = 0;
};

/**
 * Validate + decode a 44-byte v2 header from memory (magic, version,
 * header CRC, field sanity). Errors: Parse (bad magic/version) or
 * Corrupt (checksum, nonsense fields).
 */
common::Expected<BinaryHeader> parseBinaryHeader(const uint8_t *h);

/** Validate + decode a 12-byte v2 footer from memory. Errors:
 *  Corrupt (bad end magic). The CRC itself is checked by the caller
 *  against whatever bytes it actually covers. */
common::Expected<BinaryFooter> parseBinaryFooter(const uint8_t *f);

/**
 * Validate + decode an index section from memory. `bytes` must equal
 * indexSectionBytes(blockCount). Checks the section magic, the
 * embedded block count, the section CRC, and structural invariants:
 * entry key ranges are non-empty, strictly increasing, and disjoint;
 * offsets start at kBinaryHeaderBytes and strictly increase; every
 * entry holds at least one cell. Errors: Corrupt.
 */
common::Expected<std::vector<BlockIndexEntry>>
parseBlockIndex(const uint8_t *p, size_t bytes, uint32_t blockCount);

/** Result of decoding one block frame from contiguous memory. */
struct BlockDecode
{
    uint32_t cells = 0;   ///< cells appended to the output vector
    size_t bytes = 0;     ///< frame bytes consumed (8 + payload + 4)
};

/**
 * Decode one self-contained block frame ([u32 cells][u32 payload
 * len][payload][u32 crc]) from `avail` bytes at `p`, appending its
 * cells to `out`. Shared decode core of the streaming
 * BinaryProfileReader and ProfileView (over the frame bytes it read
 * from its file or buffer). `prev` is the last cell decoded before
 * this block (nullptr for the first block); ordering across the
 * boundary and within the block is enforced.
 * `varints` is reused scratch. On error `out` is restored to its
 * original size. Errors: Corrupt (truncation, checksum, bad varints,
 * ordering, cell count out of range).
 */
common::Expected<BlockDecode>
decodeBlockFrame(const uint8_t *p, size_t avail, uint32_t blockCellCap,
                 uint64_t cellsRemaining, const dram::ChipFailure *prev,
                 std::vector<dram::ChipFailure> &out,
                 std::vector<uint64_t> &varints);

/**
 * Single-pass streaming writer. Cells must arrive in strictly
 * increasing (chip, addr) order — exactly what
 * RetentionProfile::cells() yields — and their total must equal the
 * `cellCount` announced up front (the header is written eagerly so the
 * stream is never seeked). finish() flushes the last partial block and
 * the footer; the writer is unusable afterwards.
 */
class BinaryProfileWriter
{
  public:
    BinaryProfileWriter(std::ostream &os, const Conditions &cond,
                        uint64_t cellCount,
                        uint32_t blockCells = kDefaultBlockCells);

    /** Append the next cell (strictly greater than the previous). */
    void append(const dram::ChipFailure &f);

    /**
     * Flush the final block and footer. Errors are Io (stream write
     * failed) or Internal (appended cell count != announced count).
     */
    common::Status finish();

  private:
    void flushBlock();
    void putVarint(uint64_t v);

    std::ostream &os_;
    uint64_t announced_ = 0;
    uint64_t appended_ = 0;
    uint32_t blockCells_ = kDefaultBlockCells;
    uint32_t blockCount_ = 0;
    uint32_t fileCrc_ = 0;
    bool headerWritten_ = false;
    bool finished_ = false;
    bool ordered_ = true;
    dram::ChipFailure prev_{};
    /** First cell of the block being buffered. */
    dram::ChipFailure blockFirst_{};
    /** Absolute byte offset of the next block frame. */
    uint64_t offset_ = kBinaryHeaderBytes;
    /** Accumulated per-block index entries, emitted by finish(). */
    std::vector<BlockIndexEntry> index_;
    /** Cells buffered for the current block. */
    uint32_t pending_ = 0;
    /** Reused varint scratch for the current block's payload, sized
     *  once to the worst case; payloadSize_ tracks the used prefix so
     *  the encode path writes through a raw pointer. */
    std::vector<uint8_t> payload_;
    size_t payloadSize_ = 0;
};

/**
 * Streaming reader: header first, then blocks until the announced
 * cell count is reached, then the footer. All methods report Parse
 * (bad magic/version) or Corrupt (checksum mismatch, truncation,
 * ordering violation) through Expected.
 */
class BinaryProfileReader
{
  public:
    explicit BinaryProfileReader(std::istream &is);

    /**
     * Read and validate the 44-byte header.
     * @param magicConsumed the sniffing caller already consumed the
     *        8 magic bytes (and verified them)
     */
    common::Status readHeader(bool magicConsumed = false);

    /** Header fields (valid after readHeader succeeds). */
    const Conditions &conditions() const { return cond_; }
    uint64_t cellCount() const { return cellCount_; }

    /** Whether every announced cell has been decoded. */
    bool done() const { return decoded_ == cellCount_; }

    /**
     * Decode the next block, appending its cells to `out`. Cells are
     * verified strictly increasing across the whole stream. Returns
     * the number of cells appended.
     */
    common::Expected<uint64_t>
    readBlock(std::vector<dram::ChipFailure> &out);

    /**
     * Validate the index section and the footer (call once done()).
     * The index's CRC is checked and every entry is cross-checked
     * against what readBlock actually decoded, so a file whose index
     * disagrees with its blocks is Corrupt even through the streaming
     * reader that never routes queries through the index.
     */
    common::Status readFooter();

    /** Current scratch footprint (payload + decoded-varint buffers),
     *  in bytes of capacity — what the release cap bounds between
     *  blocks. Exposed for the regression test. */
    size_t scratchBytes() const
    {
        return payload_.capacity() +
               varints_.capacity() * sizeof(uint64_t);
    }

  private:
    common::Status fill(void *dst, size_t len, const char *what);

    /** Release any scratch the last block grew past the cap. */
    void trimScratch();

    std::istream &is_;
    Conditions cond_{};
    uint64_t cellCount_ = 0;
    uint64_t decoded_ = 0;
    uint32_t blockCells_ = 0;
    uint32_t blockCount_ = 0;
    uint32_t fileCrc_ = 0;
    bool haveHeader_ = false;
    bool havePrev_ = false;
    dram::ChipFailure prev_{};
    /** Absolute byte offset of the next block frame. */
    uint64_t offset_ = kBinaryHeaderBytes;
    /** Index entries reconstructed from the decoded blocks, compared
     *  against the file's index section by readFooter(). */
    std::vector<BlockIndexEntry> seen_;
    /** Reused payload scratch across blocks. */
    std::vector<uint8_t> payload_;
    /** Reused bulk-decoded varint scratch (two per cell). */
    std::vector<uint64_t> varints_;
};

/** Serialize a profile in v2 binary form. Errors: Io. */
common::Status writeProfileBinary(const RetentionProfile &profile,
                                  std::ostream &os);

/**
 * Parse a v2 binary profile. Errors: Parse (bad magic/version) or
 * Corrupt (checksum/truncation/ordering).
 * @param magicConsumed see BinaryProfileReader::readHeader
 */
common::Expected<RetentionProfile>
readProfileBinary(std::istream &is, bool magicConsumed = false);

} // namespace profiling
} // namespace reaper

#endif // REAPER_PROFILING_PROFILE_BINARY_H
