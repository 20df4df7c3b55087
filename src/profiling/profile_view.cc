#include "profiling/profile_view.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/obs.h"

namespace reaper {
namespace profiling {

using common::Error;
using common::Expected;
using common::Status;

namespace {

/** Same hostile-header reserve clamp as the streaming reader. */
constexpr uint64_t kReserveClampCells = 1u << 20;

} // namespace

struct ProfileView::Impl
{
    // Backing bytes: a descriptor read with pread() (open) or an owned
    // buffer (fromBuffer). readAt() is the only way either is read.
    int fd = -1;
    std::string owned;
    uint64_t size = 0;

    BinaryHeader header{};
    BinaryFooter footer{};
    std::vector<BlockIndexEntry> index;
    /** Where the index section begins == where the last block ends. */
    uint64_t indexOffset = 0;

    /** Memoized decoded blocks, one slot per block. unique_ptr so a
     *  decoded block's address is stable across later decodes. */
    mutable std::mutex mu;
    mutable std::vector<std::unique_ptr<std::vector<dram::ChipFailure>>>
        memo;
    mutable std::atomic<uint64_t> decodes{0};

    Impl() = default;
    Impl(const Impl &) = delete;
    Impl &operator=(const Impl &) = delete;
    ~Impl()
    {
        if (fd >= 0)
            ::close(fd);
    }

    /**
     * Bytes [offset, offset + length) of the file: a pointer into the
     * owned buffer, or into `scratch` after pread()ing them from the
     * descriptor. Errors: Corrupt (the range passes the end of the
     * file), Io (the read failed, or the file shrank while open).
     */
    Expected<const uint8_t *> readAt(uint64_t offset, uint64_t length,
                                     std::string &scratch) const
    {
        if (offset > size || length > size - offset)
            return Error::corrupt("read past the end of the profile");
        if (fd < 0)
            return reinterpret_cast<const uint8_t *>(owned.data()) +
                   offset;
        scratch.resize(static_cast<size_t>(length));
        size_t done = 0;
        while (done < length) {
            ssize_t n = ::pread(fd, scratch.data() + done,
                                static_cast<size_t>(length) - done,
                                static_cast<off_t>(offset + done));
            if (n > 0) {
                done += static_cast<size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            return Error::io(n == 0 ? std::string("file shrank while open")
                                    : std::string("read failed: ") +
                                          std::strerror(errno));
        }
        return reinterpret_cast<const uint8_t *>(scratch.data());
    }

    /** End of block `i`'s frame == start of the next frame. */
    uint64_t spanEnd(size_t i) const
    {
        return i + 1 < index.size() ? index[i + 1].offset : indexOffset;
    }

    /**
     * Decode block `i`, whose frame bytes [offset_i, offset_{i+1})
     * start at `frame`, into `out`. The block must match its index
     * entry exactly — count, first and last key, byte length.
     */
    Expected<BlockDecode>
    decodeSpan(size_t i, const uint8_t *frame,
               std::vector<dram::ChipFailure> &out,
               std::vector<uint64_t> &varints) const
    {
        const BlockIndexEntry &e = index[i];
        uint64_t len = spanEnd(i) - e.offset;
        size_t base = out.size();
        const dram::ChipFailure *prev =
            i > 0 ? &index[i - 1].last : nullptr;
        Expected<BlockDecode> dec =
            decodeBlockFrame(frame, static_cast<size_t>(len),
                             header.blockCells, e.cells, prev, out,
                             varints);
        if (!dec)
            return dec;
        if (dec.value().cells != e.cells || dec.value().bytes != len ||
            !(out[base] == e.first) || !(out.back() == e.last)) {
            out.resize(base);
            return Error::corrupt("block " + std::to_string(i) +
                                  " does not match index");
        }
        return dec;
    }

    /** Read and decode-and-memoize block `i`; cheap after the first
     *  call, which reads exactly the block's frame bytes. */
    Expected<const std::vector<dram::ChipFailure> *>
    block(size_t i) const
    {
        std::lock_guard<std::mutex> lock(mu);
        if (memo[i])
            return memo[i].get();
        std::string scratch;
        Expected<const uint8_t *> frame =
            readAt(index[i].offset, spanEnd(i) - index[i].offset,
                   scratch);
        if (!frame)
            return frame.error();
        auto cells = std::make_unique<std::vector<dram::ChipFailure>>();
        std::vector<uint64_t> varints;
        Expected<BlockDecode> dec =
            decodeSpan(i, frame.value(), *cells, varints);
        if (!dec)
            return dec.error();
        memo[i] = std::move(cells);
        decodes.fetch_add(1, std::memory_order_relaxed);
        REAPER_OBS_COUNT("profiling.view_block_decodes");
        return memo[i].get();
    }

    /**
     * Read the whole file once and stream every block's cells through
     * `fn` in file order; with `checkFileCrc`, first verify the
     * footer's whole-file CRC over the bytes read.
     */
    Status scan(bool checkFileCrc,
                const std::function<void(const dram::ChipFailure *,
                                         size_t)> &fn) const
    {
        std::string scratch;
        Expected<const uint8_t *> file = readAt(0, size, scratch);
        if (!file)
            return file.error();
        if (checkFileCrc &&
            crc32c(0, file.value(), size - kBinaryFooterBytes) !=
                footer.fileCrc)
            return Error::corrupt("file checksum mismatch");
        std::vector<dram::ChipFailure> out;
        std::vector<uint64_t> varints;
        for (size_t i = 0; i < index.size(); ++i) {
            out.clear();
            Expected<BlockDecode> dec = decodeSpan(
                i, file.value() + index[i].offset, out, varints);
            if (!dec)
                return dec.error();
            decodes.fetch_add(1, std::memory_order_relaxed);
            fn(out.data(), out.size());
        }
        REAPER_OBS_COUNT_N("profiling.view_block_decodes", index.size());
        return common::okStatus();
    }

    /** Index of the only block that could hold a key in [lo, …], or
     *  index.size() when every block ends before lo. */
    size_t firstCandidate(const dram::ChipFailure &lo) const
    {
        auto it = std::lower_bound(
            index.begin(), index.end(), lo,
            [](const BlockIndexEntry &e, const dram::ChipFailure &k) {
                return e.last < k;
            });
        return static_cast<size_t>(it - index.begin());
    }
};

ProfileView::ProfileView(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl))
{
}

ProfileView::ProfileView(ProfileView &&) noexcept = default;
ProfileView &ProfileView::operator=(ProfileView &&) noexcept = default;
ProfileView::~ProfileView() = default;

Expected<ProfileView>
ProfileView::openImpl(std::unique_ptr<Impl> impl)
{
    const uint64_t size = impl->size;
    if (size < kBinaryHeaderBytes + kBinaryIndexFixedBytes +
                   kBinaryFooterBytes)
        return Error::corrupt("truncated binary profile (" +
                              std::to_string(size) + " bytes)");
    std::string scratch;
    Expected<const uint8_t *> bytes =
        impl->readAt(0, kBinaryHeaderBytes, scratch);
    if (!bytes)
        return bytes.error();
    Expected<BinaryHeader> header = parseBinaryHeader(bytes.value());
    if (!header)
        return header.error();
    impl->header = header.value();

    bytes = impl->readAt(size - kBinaryFooterBytes, kBinaryFooterBytes,
                         scratch);
    if (!bytes)
        return bytes.error();
    Expected<BinaryFooter> footer = parseBinaryFooter(bytes.value());
    if (!footer)
        return footer.error();
    impl->footer = footer.value();

    uint64_t idxBytes = indexSectionBytes(impl->footer.blockCount);
    if (idxBytes + kBinaryHeaderBytes + kBinaryFooterBytes > size)
        return Error::corrupt("file too small for its block index");
    impl->indexOffset = size - kBinaryFooterBytes - idxBytes;
    bytes = impl->readAt(impl->indexOffset, idxBytes, scratch);
    if (!bytes)
        return bytes.error();
    Expected<std::vector<BlockIndexEntry>> index =
        parseBlockIndex(bytes.value(), static_cast<size_t>(idxBytes),
                        impl->footer.blockCount);
    if (!index)
        return index.error();
    impl->index = std::move(index).value();

    // Cross-checks between the fixed sections. Block payloads stay
    // untouched; their CRCs are verified on first decode.
    uint64_t cells = 0;
    for (const BlockIndexEntry &e : impl->index) {
        if (e.cells > impl->header.blockCells)
            return Error::corrupt("index entry exceeds block capacity");
        if (e.offset + 12 > impl->indexOffset)
            return Error::corrupt("index offset past the index section");
        cells += e.cells;
    }
    if (cells != impl->header.cellCount)
        return Error::corrupt("index cell total disagrees with header");
    if (impl->index.empty() &&
        impl->indexOffset != kBinaryHeaderBytes)
        return Error::corrupt("unindexed bytes in empty profile");

    impl->memo.resize(impl->index.size());
    REAPER_OBS_COUNT("profiling.view_opens");
    return ProfileView(std::move(impl));
}

Expected<ProfileView>
ProfileView::open(const std::string &path)
{
    auto impl = std::make_unique<Impl>();
    impl->fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (impl->fd < 0)
        return Error::io("cannot open '" + path +
                         "': " + std::strerror(errno));
    struct stat st;
    if (::fstat(impl->fd, &st) != 0 || !S_ISREG(st.st_mode))
        return Error::io("cannot stat '" + path + "'");
    impl->size = static_cast<uint64_t>(st.st_size);
    Expected<ProfileView> view = openImpl(std::move(impl));
    if (!view) {
        Error e = view.error();
        e.message = "'" + path + "': " + e.message;
        return e;
    }
    return view;
}

Expected<ProfileView>
ProfileView::fromBuffer(std::string bytes)
{
    auto impl = std::make_unique<Impl>();
    impl->owned = std::move(bytes);
    impl->size = impl->owned.size();
    return openImpl(std::move(impl));
}

const Conditions &
ProfileView::conditions() const
{
    return impl_->header.cond;
}

uint64_t
ProfileView::cellCount() const
{
    return impl_->header.cellCount;
}

uint32_t
ProfileView::blockCells() const
{
    return impl_->header.blockCells;
}

uint32_t
ProfileView::blockCount() const
{
    return impl_->footer.blockCount;
}

uint64_t
ProfileView::sizeBytes() const
{
    return impl_->size;
}

uint32_t
ProfileView::fileCrc() const
{
    return impl_->footer.fileCrc;
}

uint64_t
ProfileView::blocksDecoded() const
{
    return impl_->decodes.load(std::memory_order_relaxed);
}

Expected<bool>
ProfileView::contains(const dram::ChipFailure &cell) const
{
    REAPER_OBS_COUNT("profiling.view_point_lookups");
    size_t i = impl_->firstCandidate(cell);
    if (i == impl_->index.size() || cell < impl_->index[i].first)
        return false; // past the last block, or in an index gap
    Expected<const std::vector<dram::ChipFailure> *> cells =
        impl_->block(i);
    if (!cells)
        return cells.error();
    return std::binary_search(cells.value()->begin(),
                              cells.value()->end(), cell);
}

Expected<bool>
ProfileView::anyInRange(const dram::ChipFailure &lo,
                        const dram::ChipFailure &hi) const
{
    REAPER_OBS_COUNT("profiling.view_point_lookups");
    if (hi < lo)
        return false;
    size_t i = impl_->firstCandidate(lo);
    if (i == impl_->index.size() || hi < impl_->index[i].first)
        return false; // past the last block, or in an index gap
    const BlockIndexEntry &e = impl_->index[i];
    // The index alone settles every case but one: if the range
    // reaches e.first or e.last those keys are cells in range, and
    // any later block whose first key is ≤ hi likewise answers true.
    // Only a range strictly interior to this single block needs a
    // decode — so a lookup costs at most ONE block regardless of
    // profile size.
    if (!(e.first < lo) || !(hi < e.last))
        return true;
    Expected<const std::vector<dram::ChipFailure> *> cells =
        impl_->block(i);
    if (!cells)
        return cells.error();
    auto it = std::lower_bound(cells.value()->begin(),
                               cells.value()->end(), lo);
    return it != cells.value()->end() && !(hi < *it);
}

Status
ProfileView::forEachBlock(
    const std::function<void(const dram::ChipFailure *, size_t)> &fn)
    const
{
    return impl_->scan(false, fn);
}

Expected<RetentionProfile>
ProfileView::materialize() const
{
    // Full decodes get the same whole-file guarantee as the streaming
    // reader: every byte before the footer is covered by the file CRC
    // (the lazy paths only cover the bytes a query touches).
    std::vector<dram::ChipFailure> cells;
    cells.reserve(static_cast<size_t>(
        std::min(impl_->header.cellCount, kReserveClampCells)));
    Status walked = impl_->scan(
        true, [&cells](const dram::ChipFailure *p, size_t n) {
            cells.insert(cells.end(), p, p + n);
        });
    if (!walked)
        return walked.error();
    RetentionProfile profile(impl_->header.cond);
    profile.adoptSorted(std::move(cells));
    return profile;
}

} // namespace profiling
} // namespace reaper
