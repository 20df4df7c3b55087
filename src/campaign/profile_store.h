/**
 * @file
 * Persistent, versioned store of retention profiles.
 *
 * A RAIDR-style deployment keeps one profile per (chip, conditions)
 * pair and restores it across reboots, reprofiling only when the
 * longevity model demands. The store is a directory of profile files
 * (profiling/profile_io format) plus a sorted index file; both are
 * committed with write-to-temp-then-rename so a crash at any point
 * leaves either the old or the new contents, never a torn file. The
 * index is a cache: profiles present on disk but missing from the
 * index (a crash between the two renames) are recovered by a directory
 * scan at open.
 *
 * Reprofiling rounds don't have to rewrite full files: commitDelta()
 * appends a profiling::ProfileDelta record to a per-key chain
 * (base.profile, base.d1.profile, base.d2.profile, …), each link
 * naming its predecessor file and carrying that file's trailing CRC.
 * Chains resolve deterministically (apply in file order) and compact
 * back to a single v2 file on openView() — and because both paths end
 * in the same deterministic writer, the compacted file is
 * byte-identical to committing the full profile directly. Recovery
 * handles chains too: uncommitted-but-valid trailing deltas are
 * adopted, and stale deltas left by a crashed compaction fail their
 * base-CRC link and are removed.
 *
 * openView() hands out a block-indexed profiling::ProfileView, so
 * serve-layer point lookups stop scaling with profile size; the view
 * stays valid across later commits because commits replace files via
 * rename (the view holds a descriptor on the inode it opened).
 *
 * Readers are thread-safe: the in-memory index is guarded by a
 * shared_mutex, so any number of threads may call has/tryLoad/
 * loadOrProfile/entries concurrently with commits (the serve-layer
 * ProfileCache does exactly this). Writers (commit, commitDelta, and
 * openView when it compacts) take the lock exclusively; concurrent
 * loadOrProfile calls on the same missing key may both run profileFn,
 * with the last commit winning — same last-writer-wins semantics as
 * before.
 */

#ifndef REAPER_CAMPAIGN_PROFILE_STORE_H
#define REAPER_CAMPAIGN_PROFILE_STORE_H

#include <functional>
#include <map>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/expected.h"
#include "profiling/profile.h"
#include "profiling/profile_io.h"
#include "profiling/profile_view.h"

namespace reaper {
namespace campaign {

/** One index entry: a stored profile and its summary. */
struct StoreEntry
{
    std::string key;  ///< profile key (chip id + conditions)
    std::string file; ///< base file name within the store directory
    /** Cells in the RESOLVED profile (base plus any delta chain). */
    uint64_t cells = 0;
    /** On-disk format of the base file (the sniffing reader accepts
     *  any; this records what commit wrote, or what recovery
     *  sniffed). */
    profiling::ProfileFormat format =
        profiling::ProfileFormat::BinaryV2;
    /** Length of the delta chain stacked on the base file (0 = the
     *  base file is the whole profile). */
    uint32_t deltas = 0;
};

/** Directory-backed profile store with an index file. */
class ProfileStore
{
  public:
    /**
     * Open (creating the directory if needed) and load the index,
     * recovering entries for any profile files the index misses.
     * Throws CampaignError when the directory cannot be created or the
     * index is unreadable.
     *
     * `format` governs what commit() writes from now on; existing
     * files in either format keep loading through the sniffing reader,
     * so a directory may legitimately hold a v1/v2 mix.
     */
    explicit ProfileStore(const std::string &dir,
                          profiling::ProfileFormat format =
                              profiling::ProfileFormat::BinaryV2);

    /**
     * The canonical key of a profile: chip id plus the conditions it
     * is valid for, e.g. "B-003@trefi1024.000ms@45.00C".
     */
    static std::string profileKey(const std::string &chipId,
                                  const profiling::Conditions &cond);

    bool has(const std::string &key) const;

    /**
     * Load a stored profile, resolving any delta chain in file order.
     * Errors: ErrorCategory::NotFound when the key has no entry;
     * Io/Parse/Corrupt from the file reads or a broken chain link
     * otherwise.
     */
    common::Expected<profiling::RetentionProfile>
    load(const std::string &key) const;

    /**
     * Open a lazy block-indexed view of a stored profile. A delta
     * chain is compacted first (exclusive lock; the result is
     * byte-identical to committing the resolved profile directly), so
     * the returned view always covers the full resolved cell set.
     * Errors: NotFound (no entry), InvalidConfig (v1 text base — no
     * block index; use load()), Io/Parse/Corrupt from open or
     * compaction. Throws CampaignError only for index-rewrite I/O
     * failures, like commit().
     */
    common::Expected<profiling::ProfileView>
    openView(const std::string &key) const;

    /**
     * The load-or-reprofile lookup: return the stored profile when the
     * key is present and loads cleanly, otherwise run `profileFn`,
     * commit its result under the key, and return it. A stored-but-
     * corrupt profile is reprofiled (with a warning), not an error.
     */
    profiling::RetentionProfile loadOrProfile(
        const std::string &key,
        const std::function<profiling::RetentionProfile()> &profileFn);

    /**
     * Atomically persist a profile under a key (temp file + rename)
     * and rewrite the index. Overwrites any previous profile for the
     * key. Throws CampaignError on I/O failure.
     */
    void commit(const std::string &key,
                const profiling::RetentionProfile &profile);

    /**
     * Persist `profile` as a delta vs the key's current resolved
     * state, extending the chain instead of rewriting the base file.
     * Falls back to a full commit() when there is no base yet, the
     * store (or base) is v1 text, or the existing chain won't
     * resolve. A no-op when the profile is unchanged. Chains are
     * capped at kMaxDeltaChain links, then compacted in place.
     * Throws CampaignError on I/O failure.
     */
    void commitDelta(const std::string &key,
                     const profiling::RetentionProfile &profile);

    /** Longest delta chain commitDelta() leaves uncompacted. */
    static constexpr uint32_t kMaxDeltaChain = 32;

    size_t size() const;

    /** All entries, sorted by key. */
    std::vector<StoreEntry> entries() const;

    const std::string &dir() const { return dir_; }

    /** The format commit() writes. */
    profiling::ProfileFormat format() const { return format_; }

    /** The file name a key is stored under. */
    static std::string fileNameForKey(const std::string &key);

    /** The file name of chain link `k` (k ≥ 1) over `baseFile`. */
    static std::string deltaFileName(const std::string &baseFile,
                                     uint32_t k);

  private:
    void loadIndex();
    void scanForUnindexed();
    /** Caller must hold mutex_ (shared is enough: only reads index_). */
    void writeIndexLocked() const;
    /** Body of commit(); caller holds mutex_ exclusively. */
    void commitLocked(const std::string &key,
                      const profiling::RetentionProfile &profile);
    /** Resolve base + delta chain; caller holds mutex_ (shared ok). */
    common::Expected<profiling::RetentionProfile>
    resolveChainLocked(const StoreEntry &e) const;
    /** Rewrite the base as the resolved profile and drop the chain;
     *  caller holds mutex_ exclusively. */
    common::Status compactChainLocked(StoreEntry &e) const;

    std::string dir_;
    profiling::ProfileFormat format_;
    /** Guards index_. Reads take shared, commits take exclusive. */
    mutable std::shared_mutex mutex_;
    /** mutable: openView() is logically const but may compact a
     *  chain, which updates the entry it returns a view of. */
    mutable std::map<std::string, StoreEntry> index_;
};

} // namespace campaign
} // namespace reaper

#endif // REAPER_CAMPAIGN_PROFILE_STORE_H
