/**
 * @file
 * ProfileView: a lazy read handle over a REAPER-PROFILE v2 file that
 * reads only the bytes a query needs.
 *
 * The eager readers (profile_binary.h, profile_io.h) decode a whole
 * file even when the caller wants one row — which makes cold-miss
 * latency in serve::ProfileCache scale with profile size. A view
 * instead validates only the fixed-size sections on open (header,
 * footer, and the CRC-covered per-block index), then decodes blocks
 * on demand:
 *
 *   - contains(cell) routes through the index key ranges and decodes
 *     at most ONE block (zero when the key falls in an index gap).
 *   - anyInRange(lo, hi) answers from the index alone unless the
 *     range is strictly interior to a single block, so it too decodes
 *     at most ONE block. This is what serves IsRowWeak queries.
 *   - materialize() decodes everything into a RetentionProfile and —
 *     unlike the lazy paths — verifies the whole-file CRC, so it is
 *     exactly as strict as the streaming reader.
 *
 * Decoded blocks are memoized (thread-safe; per-block CRC checked on
 * first decode and the decoded key range cross-checked against the
 * index), so repeated queries against the same rows stay cheap.
 *
 * A file-backed view holds an open descriptor and reads it with
 * pread(): open() reads the header, the footer and the index (three
 * reads), a block's first decode reads exactly that block's frame,
 * and materialize()/forEachBlock() read the whole file once. A view
 * over a buffer (fromBuffer) goes through the same read primitive,
 * so both backings parse and decode identically. (Mapping the file
 * instead made every cold open and every close change the process's
 * address space, which serializes concurrent openers on the kernel's
 * per-process lock; see DESIGN.md §15.)
 *
 * Lifetime and aliasing rules (see DESIGN.md §15):
 *   - A view holds its descriptor for its whole lifetime, so every
 *     open view counts against RLIMIT_NOFILE (serve::ProfileCache
 *     bounds how many it keeps). Decoded cells returned by queries
 *     are owned copies.
 *   - The underlying file must not be truncated or rewritten in place
 *     while a view is open (a read that comes up short reports Io).
 *     Atomic rename-replace (what campaign::ProfileStore does) is
 *     safe: the view keeps reading the inode it opened.
 *   - Views are movable, not copyable. All query methods are const
 *     and safe to call concurrently.
 *
 * Obs counters: profiling.view_opens, profiling.view_block_decodes,
 * profiling.view_point_lookups.
 */

#ifndef REAPER_PROFILING_PROFILE_VIEW_H
#define REAPER_PROFILING_PROFILE_VIEW_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/expected.h"
#include "profiling/profile.h"
#include "profiling/profile_binary.h"

namespace reaper {
namespace profiling {

class ProfileView
{
  public:
    /**
     * Open `path`, keep its descriptor, and read and validate its
     * fixed sections (header magic, version and CRC; index magic, CRC
     * and structural invariants; footer magic and block count;
     * section sizes against the file size). Block payloads are NOT
     * read — their CRCs are checked lazily on first decode. Errors:
     * Io (open/stat/read failed, e.g. EMFILE), Parse (not a v2
     * profile), Corrupt (damaged fixed sections).
     */
    static common::Expected<ProfileView> open(const std::string &path);

    /** Same validation over an in-memory copy of a v2 file. The view
     *  owns the buffer and holds no descriptor. Used by tests and the
     *  memory-sourced readProfile() path. */
    static common::Expected<ProfileView> fromBuffer(std::string bytes);

    ProfileView(ProfileView &&) noexcept;
    ProfileView &operator=(ProfileView &&) noexcept;
    ProfileView(const ProfileView &) = delete;
    ProfileView &operator=(const ProfileView &) = delete;
    ~ProfileView();

    /** Header fields. */
    const Conditions &conditions() const;
    uint64_t cellCount() const;
    uint32_t blockCells() const;

    /** Index / file shape. */
    uint32_t blockCount() const;
    uint64_t sizeBytes() const;
    uint32_t fileCrc() const;

    /** Blocks decoded so far through this view (memoized decodes
     *  count once; materialize()/forEachBlock() streaming decodes
     *  count every time). The ci.sh smoke asserts point lookups keep
     *  this ≤ 2 per query regardless of profile size. */
    uint64_t blocksDecoded() const;

    /** Point query: is `cell` in the profile? Decodes at most one
     *  block. Errors: Corrupt (the touched block is damaged). */
    common::Expected<bool> contains(const dram::ChipFailure &cell) const;

    /**
     * Range query: does the profile hold any cell in [lo, hi]
     * (inclusive)? Answered from the index alone (zero decodes)
     * unless the range falls strictly inside one block's key range,
     * which decodes that single block. Errors: Corrupt.
     */
    common::Expected<bool> anyInRange(const dram::ChipFailure &lo,
                                      const dram::ChipFailure &hi) const;

    /**
     * Stream every block's cells through `fn(cells, count)` in file
     * order. Reads the whole file once into transient scratch
     * (nothing new is memoized). Errors: Corrupt (first damaged block
     * aborts the walk), Io (the read failed).
     */
    common::Status
    forEachBlock(const std::function<void(const dram::ChipFailure *,
                                          size_t)> &fn) const;

    /**
     * Decode the whole file into a RetentionProfile. Reads the file
     * once and also verifies the footer's whole-file CRC over it,
     * making this path bit-for-bit as strict as readProfileBinary().
     * Errors: Corrupt, Io (the read failed).
     */
    common::Expected<RetentionProfile> materialize() const;

  private:
    struct Impl;
    explicit ProfileView(std::unique_ptr<Impl> impl);
    static common::Expected<ProfileView>
    openImpl(std::unique_ptr<Impl> impl);

    std::unique_ptr<Impl> impl_;
};

} // namespace profiling
} // namespace reaper

#endif // REAPER_PROFILING_PROFILE_VIEW_H
