#include "profiling/profile_binary.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/logging.h"
#include "profiling/wire_util.h"
#include "simd/crc32c.h"
#include "simd/varint.h"

namespace reaper {
namespace profiling {

using common::Error;
using common::Expected;
using common::Status;
using wire::getF64;
using wire::getU32;
using wire::getU64;
using wire::putF64;
using wire::putU32;
using wire::putU64;

namespace {

constexpr uint8_t kMagic[8] = {0x89, 'R', 'P', 'F', '2',
                               0x0D, 0x0A, 0x1A};
constexpr uint8_t kEndMagic[4] = {'R', 'P', 'N', 'D'};
constexpr uint8_t kIndexMagic[4] = {'R', 'P', 'I', 'X'};
constexpr uint32_t kVersion = 2;
/** A varint cell costs at most 2 x 10 bytes; anything bigger than the
 *  worst case for the block's cell budget is a corrupt length. */
constexpr size_t kMaxVarintBytes = simd::kMaxVarintBytes;
/** Cap the decode-side reserve so a hostile header claiming 10^12
 *  cells cannot trigger a huge up-front allocation; the vector still
 *  grows geometrically past this if the cells really are there. */
constexpr uint64_t kReserveClampCells = 1u << 20;

void
packIndexEntry(uint8_t *p, const BlockIndexEntry &e)
{
    putU32(p, e.first.chip);
    putU64(p + 4, e.first.addr);
    putU32(p + 12, e.last.chip);
    putU64(p + 16, e.last.addr);
    putU64(p + 24, e.offset);
    putU32(p + 32, e.cells);
}

BlockIndexEntry
unpackIndexEntry(const uint8_t *p)
{
    BlockIndexEntry e;
    e.first = {getU32(p), getU64(p + 4)};
    e.last = {getU32(p + 12), getU64(p + 16)};
    e.offset = getU64(p + 24);
    e.cells = getU32(p + 32);
    return e;
}

} // namespace

uint32_t
crc32c(uint32_t crc, const void *data, size_t len)
{
    return simd::crc32c(crc, data, len);
}

const char *
toString(ProfileFormat f)
{
    switch (f) {
    case ProfileFormat::TextV1:
        return "v1";
    case ProfileFormat::BinaryV2:
        return "v2";
    case ProfileFormat::DeltaV2:
        return "delta";
    }
    return "?";
}

Expected<ProfileFormat>
parseProfileFormat(const std::string &name)
{
    if (name == "v1" || name == "text")
        return ProfileFormat::TextV1;
    if (name == "v2" || name == "binary")
        return ProfileFormat::BinaryV2;
    if (name == "delta")
        return ProfileFormat::DeltaV2;
    return Error::invalidConfig("unknown profile format '" + name +
                                "' (expected v1|text|v2|binary|delta)");
}

// --- shared wire parsing (streaming reader + ProfileView) ---

Expected<BinaryHeader>
parseBinaryHeader(const uint8_t *h)
{
    if (std::memcmp(h, kMagic, 8) != 0)
        return Error::parse("bad binary profile magic");
    if (getU32(h + 40) != crc32c(0, h, 40))
        return Error::corrupt("header checksum mismatch");
    uint32_t version = getU32(h + 8);
    if (version != kVersion)
        return Error::parse("unsupported binary profile version " +
                            std::to_string(version));
    BinaryHeader out;
    out.blockCells = getU32(h + 12);
    if (out.blockCells == 0)
        return Error::corrupt("zero block cell capacity");
    out.cond.refreshInterval = getF64(h + 16);
    out.cond.temperature = getF64(h + 24);
    if (!(out.cond.refreshInterval > 0))
        return Error::corrupt("non-positive refresh interval");
    out.cellCount = getU64(h + 32);
    return out;
}

Expected<BinaryFooter>
parseBinaryFooter(const uint8_t *f)
{
    if (std::memcmp(f, kEndMagic, 4) != 0)
        return Error::corrupt("bad footer magic");
    BinaryFooter out;
    out.blockCount = getU32(f + 4);
    out.fileCrc = getU32(f + 8);
    return out;
}

Expected<std::vector<BlockIndexEntry>>
parseBlockIndex(const uint8_t *p, size_t bytes, uint32_t blockCount)
{
    if (bytes != indexSectionBytes(blockCount))
        return Error::corrupt("bad index section size");
    if (std::memcmp(p, kIndexMagic, 4) != 0)
        return Error::corrupt("bad index magic");
    if (getU32(p + 4) != blockCount)
        return Error::corrupt("index block count mismatch");
    size_t crcOff = bytes - 4;
    if (getU32(p + crcOff) != crc32c(0, p, crcOff))
        return Error::corrupt("index checksum mismatch");

    std::vector<BlockIndexEntry> entries;
    entries.reserve(blockCount);
    uint64_t expectedOffset = kBinaryHeaderBytes;
    for (uint32_t i = 0; i < blockCount; ++i) {
        BlockIndexEntry e =
            unpackIndexEntry(p + 8 + size_t(i) * kBinaryIndexEntryBytes);
        if (e.cells == 0)
            return Error::corrupt("index entry with zero cells");
        if (e.last < e.first)
            return Error::corrupt("index entry key range inverted");
        if (i > 0 && !(entries.back().last < e.first))
            return Error::corrupt("index key ranges not increasing");
        if (i == 0 ? e.offset != expectedOffset
                   : e.offset <= entries.back().offset)
            return Error::corrupt("index offsets not increasing");
        entries.push_back(e);
    }
    return entries;
}

Expected<BlockDecode>
decodeBlockFrame(const uint8_t *p, size_t avail, uint32_t blockCellCap,
                 uint64_t cellsRemaining, const dram::ChipFailure *prev,
                 std::vector<dram::ChipFailure> &out,
                 std::vector<uint64_t> &varints)
{
    if (avail < 12)
        return Error::corrupt("truncated block frame");
    uint32_t cells = getU32(p);
    uint32_t payloadBytes = getU32(p + 4);
    if (cells == 0 || cells > blockCellCap)
        return Error::corrupt("bad block cell count " +
                              std::to_string(cells));
    if (cells > cellsRemaining)
        return Error::corrupt("block overruns announced cell count");
    if (payloadBytes > static_cast<size_t>(cells) * 2 * kMaxVarintBytes)
        return Error::corrupt("bad block payload length " +
                              std::to_string(payloadBytes));
    size_t frameBytes = 8 + static_cast<size_t>(payloadBytes) + 4;
    if (frameBytes > avail)
        return Error::corrupt("truncated block payload");
    uint32_t crc = crc32c(0, p, 8 + static_cast<size_t>(payloadBytes));
    if (getU32(p + 8 + payloadBytes) != crc)
        return Error::corrupt("block checksum mismatch");

    // Bulk-decode the payload's varints in one dispatched pass (two
    // per cell, by construction of the writer), then reconstruct the
    // delta-coded cells from the flat value array.
    varints.resize(static_cast<size_t>(cells) * 2);
    const uint8_t *v0 = p + 8;
    const uint8_t *vend = v0 + payloadBytes;
    const uint8_t *vp =
        simd::decodeVarints(v0, vend, varints.data(), varints.size());
    if (vp == nullptr)
        return Error::corrupt("bad varint in block");
    if (vp != vend)
        return Error::corrupt("trailing bytes in block payload");

    // Block-first cell: raw (chip, addr), validated with the full
    // cross-block ordering compare.
    dram::ChipFailure firstCell{};
    {
        uint64_t chip = varints[0];
        if (chip > 0xFFFFFFFFull)
            return Error::corrupt("chip index out of range");
        firstCell = {static_cast<uint32_t>(chip), varints[1]};
        if (prev != nullptr && !(*prev < firstCell))
            return Error::corrupt("cells not strictly increasing");
    }
    // Later cells: delta-coded. Reconstruct with prev in registers and
    // raw writes into the pre-grown output — the validation below is
    // the strict-increase check specialized per delta kind (dchip == 0
    // needs addr to grow without wrapping; dchip != 0 needs the new
    // chip to grow and stay in range), exactly the set of streams the
    // general `!(prev < f)` compare accepted.
    size_t base = out.size();
    out.resize(base + cells);
    dram::ChipFailure *dst = out.data() + base;
    *dst++ = firstCell;
    uint64_t chip = firstCell.chip;
    uint64_t addr = firstCell.addr;
    const uint64_t *v = varints.data() + 2;
    for (uint32_t i = 1; i < cells; ++i, v += 2) {
        uint64_t dchip = v[0];
        uint64_t d = v[1];
        if (dchip == 0) {
            // next <= addr catches both d == 0 (equal) and unsigned
            // wraparound (smaller), the two ways !(prev < f) fired.
            uint64_t next = addr + d;
            if (next <= addr) {
                out.resize(base);
                return Error::corrupt("cells not strictly increasing");
            }
            addr = next;
        } else {
            uint64_t next = chip + dchip;
            if (next > 0xFFFFFFFFull) {
                out.resize(base);
                return Error::corrupt("chip index out of range");
            }
            if (next <= chip) {
                out.resize(base);
                return Error::corrupt("cells not strictly increasing");
            }
            chip = next;
            addr = d;
        }
        *dst++ = {static_cast<uint32_t>(chip), addr};
    }
    BlockDecode dec;
    dec.cells = cells;
    dec.bytes = frameBytes;
    return dec;
}

// --- writer ---

BinaryProfileWriter::BinaryProfileWriter(std::ostream &os,
                                         const Conditions &cond,
                                         uint64_t cellCount,
                                         uint32_t blockCells)
    : os_(os), announced_(cellCount),
      blockCells_(blockCells ? blockCells : kDefaultBlockCells)
{
    uint8_t h[kBinaryHeaderBytes];
    std::memcpy(h, kMagic, 8);
    putU32(h + 8, kVersion);
    putU32(h + 12, blockCells_);
    putF64(h + 16, cond.refreshInterval);
    putF64(h + 24, cond.temperature);
    putU64(h + 32, cellCount);
    putU32(h + 40, crc32c(0, h, 40));
    os_.write(reinterpret_cast<const char *>(h), kBinaryHeaderBytes);
    fileCrc_ = crc32c(fileCrc_, h, kBinaryHeaderBytes);
    headerWritten_ = true;
    // Worst case block payload, so the raw-pointer encode in
    // putVarint() never needs a bounds check or reallocation.
    payload_.resize(static_cast<size_t>(blockCells_) * 2 *
                    kMaxVarintBytes);
}

void
BinaryProfileWriter::putVarint(uint64_t v)
{
    payloadSize_ +=
        simd::encodeVarint(payload_.data() + payloadSize_, v);
}

void
BinaryProfileWriter::append(const dram::ChipFailure &f)
{
    if (finished_)
        panic("BinaryProfileWriter: append() after finish()");
    if (appended_ > 0 && !(prev_ < f))
        ordered_ = false; // reported once, by finish()
    if (pending_ == 0) {
        // Block-first cell: raw, so every block decodes on its own.
        blockFirst_ = f;
        putVarint(f.chip);
        putVarint(f.addr);
    } else {
        putVarint(f.chip - prev_.chip);
        if (f.chip != prev_.chip)
            putVarint(f.addr);
        else
            putVarint(f.addr - prev_.addr);
    }
    prev_ = f;
    ++pending_;
    ++appended_;
    if (pending_ == blockCells_)
        flushBlock();
}

void
BinaryProfileWriter::flushBlock()
{
    if (pending_ == 0)
        return;
    uint8_t frame[8];
    putU32(frame, pending_);
    putU32(frame + 4, static_cast<uint32_t>(payloadSize_));
    uint32_t crc = crc32c(0, frame, sizeof(frame));
    crc = crc32c(crc, payload_.data(), payloadSize_);
    uint8_t crcBytes[4];
    putU32(crcBytes, crc);

    os_.write(reinterpret_cast<const char *>(frame), sizeof(frame));
    os_.write(reinterpret_cast<const char *>(payload_.data()),
              static_cast<std::streamsize>(payloadSize_));
    os_.write(reinterpret_cast<const char *>(crcBytes), 4);
    fileCrc_ = crc32c(fileCrc_, frame, sizeof(frame));
    fileCrc_ = crc32c(fileCrc_, payload_.data(), payloadSize_);
    fileCrc_ = crc32c(fileCrc_, crcBytes, 4);

    BlockIndexEntry entry;
    entry.first = blockFirst_;
    entry.last = prev_;
    entry.offset = offset_;
    entry.cells = pending_;
    index_.push_back(entry);
    offset_ += 8 + payloadSize_ + 4;

    ++blockCount_;
    pending_ = 0;
    payloadSize_ = 0;
}

Status
BinaryProfileWriter::finish()
{
    if (finished_)
        panic("BinaryProfileWriter: finish() called twice");
    finished_ = true;
    if (!ordered_)
        return Error::internal("binary profile writer: cells not in "
                               "strictly increasing order");
    if (appended_ != announced_)
        return Error::internal(
            "binary profile writer: appended " +
            std::to_string(appended_) + " cells, announced " +
            std::to_string(announced_));
    flushBlock();

    // Index section: magic, block count, fixed-size entries, CRC.
    std::vector<uint8_t> idx(
        static_cast<size_t>(indexSectionBytes(blockCount_)));
    std::memcpy(idx.data(), kIndexMagic, 4);
    putU32(idx.data() + 4, blockCount_);
    for (size_t i = 0; i < index_.size(); ++i)
        packIndexEntry(idx.data() + 8 + i * kBinaryIndexEntryBytes,
                       index_[i]);
    putU32(idx.data() + idx.size() - 4,
           crc32c(0, idx.data(), idx.size() - 4));
    os_.write(reinterpret_cast<const char *>(idx.data()),
              static_cast<std::streamsize>(idx.size()));
    fileCrc_ = crc32c(fileCrc_, idx.data(), idx.size());

    uint8_t f[kBinaryFooterBytes];
    std::memcpy(f, kEndMagic, 4);
    putU32(f + 4, blockCount_);
    putU32(f + 8, fileCrc_);
    os_.write(reinterpret_cast<const char *>(f), kBinaryFooterBytes);
    os_.flush();
    if (!os_)
        return Error::io("binary profile write failed");
    return common::okStatus();
}

// --- reader ---

BinaryProfileReader::BinaryProfileReader(std::istream &is) : is_(is) {}

Status
BinaryProfileReader::fill(void *dst, size_t len, const char *what)
{
    is_.read(static_cast<char *>(dst),
             static_cast<std::streamsize>(len));
    if (static_cast<size_t>(is_.gcount()) != len)
        return Error::corrupt(std::string("truncated ") + what +
                              " (wanted " + std::to_string(len) +
                              " bytes, got " +
                              std::to_string(is_.gcount()) + ")");
    return common::okStatus();
}

Status
BinaryProfileReader::readHeader(bool magicConsumed)
{
    uint8_t h[kBinaryHeaderBytes];
    size_t off = 0;
    if (magicConsumed) {
        std::memcpy(h, kMagic, 8);
        off = 8;
    }
    Status got = fill(h + off, kBinaryHeaderBytes - off, "header");
    if (!got)
        return got;
    Expected<BinaryHeader> parsed = parseBinaryHeader(h);
    if (!parsed)
        return parsed.error();
    blockCells_ = parsed.value().blockCells;
    cond_ = parsed.value().cond;
    cellCount_ = parsed.value().cellCount;
    fileCrc_ = crc32c(0, h, kBinaryHeaderBytes);
    haveHeader_ = true;
    return common::okStatus();
}

Expected<uint64_t>
BinaryProfileReader::readBlock(std::vector<dram::ChipFailure> &out)
{
    if (!haveHeader_)
        panic("BinaryProfileReader: readBlock() before readHeader()");
    if (done())
        panic("BinaryProfileReader: readBlock() past the cell count");

    // Scratch trimming must happen on every exit — the error paths
    // especially, since a Corrupt mid-file is exactly when a caller
    // stops reading and the last block's outsized scratch would
    // otherwise stay stranded under a long-lived owner.
    struct ScratchGuard
    {
        BinaryProfileReader *r;
        ~ScratchGuard() { r->trimScratch(); }
    } guard{this};

    uint8_t frame[8];
    Status got = fill(frame, sizeof(frame), "block header");
    if (!got)
        return got.error();
    uint32_t cells = getU32(frame);
    uint32_t payloadBytes = getU32(frame + 4);
    if (cells == 0 || cells > blockCells_)
        return Error::corrupt("bad block cell count " +
                              std::to_string(cells));
    if (cells > cellCount_ - decoded_)
        return Error::corrupt("block overruns announced cell count");
    if (payloadBytes >
        static_cast<size_t>(cells) * 2 * kMaxVarintBytes)
        return Error::corrupt("bad block payload length " +
                              std::to_string(payloadBytes));

    // Buffer the whole frame contiguously ([frame][payload][crc]) and
    // hand it to the decode core shared with ProfileView.
    payload_.resize(8 + static_cast<size_t>(payloadBytes) + 4);
    std::memcpy(payload_.data(), frame, 8);
    got = fill(payload_.data() + 8, payload_.size() - 8,
               "block payload");
    if (!got)
        return got.error();

    size_t base = out.size();
    Expected<BlockDecode> dec = decodeBlockFrame(
        payload_.data(), payload_.size(), blockCells_,
        cellCount_ - decoded_, havePrev_ ? &prev_ : nullptr, out,
        varints_);
    if (!dec)
        return dec.error();
    fileCrc_ = crc32c(fileCrc_, payload_.data(), payload_.size());

    BlockIndexEntry entry;
    entry.first = out[base];
    entry.last = out.back();
    entry.offset = offset_;
    entry.cells = cells;
    seen_.push_back(entry);
    offset_ += payload_.size();

    prev_ = out.back();
    havePrev_ = true;
    decoded_ += cells;
    ++blockCount_;
    return static_cast<uint64_t>(cells);
}

void
BinaryProfileReader::trimScratch()
{
    // Release-and-reacquire above the cap: a single outsized block
    // (a file written with a huge block capacity) must not pin its
    // scratch for the lifetime of a long-lived reader owner.
    if (payload_.capacity() > kReaderScratchReleaseBytes)
        std::vector<uint8_t>().swap(payload_);
    if (varints_.capacity() * sizeof(uint64_t) >
        kReaderScratchReleaseBytes)
        std::vector<uint64_t>().swap(varints_);
}

Status
BinaryProfileReader::readFooter()
{
    if (!done())
        panic("BinaryProfileReader: readFooter() before all cells");

    // Index section first: magic + count header, then the entries and
    // the section CRC in one buffered read.
    uint8_t ih[8];
    Status got = fill(ih, sizeof(ih), "index header");
    if (!got)
        return got;
    if (std::memcmp(ih, kIndexMagic, 4) != 0)
        return Error::corrupt("bad index magic");
    if (getU32(ih + 4) != blockCount_)
        return Error::corrupt("index block count mismatch");
    std::vector<uint8_t> idx(
        static_cast<size_t>(indexSectionBytes(blockCount_)));
    std::memcpy(idx.data(), ih, 8);
    got = fill(idx.data() + 8, idx.size() - 8, "index entries");
    if (!got)
        return got;
    Expected<std::vector<BlockIndexEntry>> entries =
        parseBlockIndex(idx.data(), idx.size(), blockCount_);
    if (!entries)
        return entries.error();
    for (uint32_t i = 0; i < blockCount_; ++i)
        if (!(entries.value()[i] == seen_[i]))
            return Error::corrupt("index does not match block " +
                                  std::to_string(i));
    fileCrc_ = crc32c(fileCrc_, idx.data(), idx.size());

    uint8_t f[kBinaryFooterBytes];
    got = fill(f, kBinaryFooterBytes, "footer");
    if (!got)
        return got;
    Expected<BinaryFooter> footer = parseBinaryFooter(f);
    if (!footer)
        return footer.error();
    if (footer.value().blockCount != blockCount_)
        return Error::corrupt("footer block count mismatch");
    if (footer.value().fileCrc != fileCrc_)
        return Error::corrupt("file checksum mismatch");
    return common::okStatus();
}

// --- convenience entry points ---

Status
writeProfileBinary(const RetentionProfile &profile, std::ostream &os)
{
    BinaryProfileWriter writer(os, profile.conditions(),
                               profile.size());
    for (const dram::ChipFailure &f : profile.cells())
        writer.append(f);
    return writer.finish();
}

Expected<RetentionProfile>
readProfileBinary(std::istream &is, bool magicConsumed)
{
    BinaryProfileReader reader(is);
    Status header = reader.readHeader(magicConsumed);
    if (!header)
        return header.error();
    std::vector<dram::ChipFailure> cells;
    cells.reserve(static_cast<size_t>(
        std::min(reader.cellCount(), kReserveClampCells)));
    while (!reader.done()) {
        Expected<uint64_t> block = reader.readBlock(cells);
        if (!block)
            return block.error();
    }
    Status footer = reader.readFooter();
    if (!footer)
        return footer.error();
    RetentionProfile profile(reader.conditions());
    profile.adoptSorted(std::move(cells));
    return profile;
}

} // namespace profiling
} // namespace reaper
