/**
 * @file
 * Retention-profile serialization.
 *
 * Real deployments persist failure profiles (e.g. the memory
 * controller stores them in the ArchShield FaultMap region or flash)
 * so the system can restore relaxed-refresh operation after a reboot
 * and only reprofile when the longevity model says so.
 *
 * Three wire formats coexist:
 *
 *  - v1: a small line-oriented text file (diffable, greppable; see
 *    saveProfile). Kept for interop and human inspection.
 *  - v2: the binary delta-varint format of profiling/profile_binary.h
 *    — checksummed, several times smaller, and an order of magnitude
 *    faster to decode. The default for all writes.
 *  - delta: a patch vs a named base profile (profile_delta.h). Not a
 *    standalone profile: the readers here classify it (sniff) and
 *    refuse to decode it on its own — chains resolve through
 *    campaign::ProfileStore.
 *
 * The readers sniff the leading magic and accept v1 or v2
 * transparently, so a store directory may hold a mix of formats
 * (e.g. after flipping --profile-format mid-deployment).
 *
 * Reads route through profiling::ProfileView where the source allows
 * it (a v2 file or buffer): readProfileFile() is a thin
 * ProfileView::open() + materialize() wrapper, so the eager and lazy
 * paths share one validation story. Prefer ProfileSource over raw
 * streams — a stream can only be decoded eagerly front-to-back, which
 * is why the readProfile(std::istream&) overload is deprecated.
 *
 * The primary APIs return common::Expected with typed categories —
 * Io for filesystem failures, Parse for malformed headers, Corrupt
 * for truncated or checksum-failing payloads — so callers (the
 * campaign store's index recovery, the serve cache loader) can
 * dispatch without string matching.
 */

#ifndef REAPER_PROFILING_PROFILE_IO_H
#define REAPER_PROFILING_PROFILE_IO_H

#include <iosfwd>
#include <string>

#include "common/expected.h"
#include "profiling/profile.h"
#include "profiling/profile_binary.h"

namespace reaper {
namespace profiling {

/** Serialize a profile as v1 text (conditions + sorted cell list). */
void saveProfile(const RetentionProfile &profile, std::ostream &os);

/**
 * Serialize a profile to a stream in the requested format. Errors are
 * ErrorCategory::Io.
 */
common::Status
writeProfile(const RetentionProfile &profile, std::ostream &os,
             ProfileFormat format = ProfileFormat::BinaryV2);

/**
 * Save to a file path. Errors are ErrorCategory::Io (cannot open,
 * write failed).
 */
common::Status
writeProfileFile(const RetentionProfile &profile,
                 const std::string &path,
                 ProfileFormat format = ProfileFormat::BinaryV2);

/**
 * Where profile bytes come from. A small value type so readProfile()
 * can pick the best decode strategy per source: files and memory
 * buffers route v2 content through the block-indexed ProfileView,
 * streams fall back to the eager front-to-back decode.
 */
class ProfileSource
{
  public:
    /** Read from a file path (v1 or v2; delta records are refused
     *  with InvalidConfig — resolve via campaign::ProfileStore). */
    static ProfileSource fromFile(std::string path);

    /** Read from an in-memory serialized profile. */
    static ProfileSource fromMemory(std::string bytes);

    /** Read from a stream the caller keeps alive for the duration of
     *  the readProfile() call. Eager decode only. */
    static ProfileSource fromStream(std::istream &is);

  private:
    friend common::Expected<RetentionProfile>
    readProfile(const ProfileSource &src);

    enum class Kind : uint8_t
    {
        File,
        Memory,
        Stream,
    };
    Kind kind_ = Kind::Stream;
    std::string payload_; ///< path (File) or bytes (Memory)
    std::istream *stream_ = nullptr;
};

/**
 * Parse a serialized profile, sniffing v1 text vs v2 binary from the
 * leading magic. Errors are ErrorCategory::Parse (bad magic/version/
 * header), ErrorCategory::Corrupt (truncated or checksum-failing
 * payload), Io (file sources), or InvalidConfig (a delta record,
 * which is not standalone).
 */
common::Expected<RetentionProfile>
readProfile(const ProfileSource &src);

/**
 * @deprecated An opaque stream forces an eager front-to-back decode
 * and hides the source, so nothing can be read lazily by offset.
 * Use readProfile(ProfileSource::fromStream(is)) where a stream is
 * unavoidable, or better, a File/Memory source (or ProfileView
 * directly).
 */
[[deprecated("use readProfile(ProfileSource) — see "
             "profiling/profile_io.h migration note")]]
common::Expected<RetentionProfile> readProfile(std::istream &is);

/**
 * Load from a file path (v1 or v2). v2 files decode through
 * ProfileView::open() + materialize(), v1 through the text parser;
 * delta records are refused with InvalidConfig (resolve via
 * campaign::ProfileStore). Adds ErrorCategory::Io when the file
 * cannot be opened; failures report the path in the message. Records
 * obs counters (profile loads, bytes, decode time) under
 * REAPER_OBS=counters.
 */
common::Expected<RetentionProfile>
readProfileFile(const std::string &path);

/**
 * The format of the profile at `path`, from its leading magic
 * (including DeltaV2 for delta records). Io when the file cannot be
 * opened or is empty; the result says nothing about whether the rest
 * of the file is well-formed.
 */
common::Expected<ProfileFormat>
sniffProfileFormat(const std::string &path);

/** Save to a file path; fatal() on I/O failure. */
void saveProfileFile(const RetentionProfile &profile,
                     const std::string &path,
                     ProfileFormat format = ProfileFormat::BinaryV2);

/** Load from a stream; fatal() with a diagnostic on malformed input. */
RetentionProfile loadProfile(std::istream &is);

/** Load from a file path; fatal() on I/O or parse failure. */
RetentionProfile loadProfileFile(const std::string &path);

} // namespace profiling
} // namespace reaper

#endif // REAPER_PROFILING_PROFILE_IO_H
