/**
 * @file
 * REAPER-NET v1: the binary query wire protocol.
 *
 * The serving tier's process boundary. A connection carries a stream
 * of self-delimiting frames in either direction; every frame is
 * independently verifiable, so a broken peer (or a flipped bit on the
 * path) surfaces as a typed error instead of a desynchronized stream —
 * the same discipline the v2 profile format applies to disk bytes
 * (profiling/profile_binary.h) applied to socket bytes.
 *
 * Frame layout (all fixed-width integers little-endian; see DESIGN.md
 * §13):
 *
 *   u32 bodyLen | body | u32 CRC32C(body)
 *   body := u8 opcode | u8 version (= 1) | payload
 *
 * Payload integers are LEB128 varints (shared with the profile codec:
 * simd::encodeVarint / simd::decodeVarints, so the hot decode path
 * rides the same SWAR kernel), strings are varint length + raw bytes,
 * and the one floating-point field (refresh interval seconds) is the
 * raw IEEE-754 bit pattern as a fixed u64.
 *
 * Every decoder treats its input as hostile: frame and batch lengths
 * are clamped before any allocation (a forged u32/varint cannot make
 * the daemon reserve terabytes — the network mirror of the v1/v2
 * profile-header `cells.reserve` clamp), truncated or overrunning
 * payloads and checksum mismatches return ErrorCategory::Corrupt, and
 * unknown opcodes or versions return ErrorCategory::Parse. Limits the
 * caller chooses (DecodeLimits) are InvalidConfig when nonsensical.
 *
 * Opcodes:
 *   Hello / HelloAck          version + limits handshake (optional —
 *                             every frame already self-describes)
 *   ListKeys / KeyList        the store's profile keys, so a client
 *                             can build a workload without out-of-band
 *                             configuration
 *   QueryBatch                N point lookups (client-chosen ids)
 *   ResponseBatch             N answers, keyed by those ids; statuses
 *                             Ok / NotFound / Rejected (backpressure
 *                             or a profile unreadable right now)
 *   ProtocolError             terminal server diagnostic before close
 *
 * Responses may arrive out of order and regrouped across batches; the
 * id is the only correlation. Backpressure is first-class: a daemon
 * whose queue is full answers Rejected immediately rather than
 * blocking the event loop or silently dropping — every submitted
 * request gets exactly one response.
 */

#ifndef REAPER_NET_WIRE_H
#define REAPER_NET_WIRE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/expected.h"
#include "serve/query_engine.h"

namespace reaper {
namespace net {

/** Protocol version carried in every frame body. */
constexpr uint8_t kProtocolVersion = 1;

/** Hello payload magic ("RPN1"): catches a peer that frames correctly
 *  but speaks a different protocol entirely. */
constexpr uint32_t kHelloMagic = 0x314E5052;

/** Bytes around the body: u32 length prefix + u32 CRC32C trailer. */
constexpr size_t kFrameOverheadBytes = 8;

/** Smallest possible body: opcode + version, no payload. */
constexpr size_t kMinBodyBytes = 2;

/** Default decoder clamps (see DecodeLimits). */
constexpr size_t kDefaultMaxFrameBytes = 1u << 20;
constexpr size_t kDefaultMaxBatchPerFrame = 8192;
constexpr size_t kDefaultMaxKeyBytes = 4096;

/** Frame kinds. Values are wire-stable; add new ones at the end. */
enum class Opcode : uint8_t
{
    Hello = 1,         ///< c->s: u32 magic
    HelloAck = 2,      ///< s->c: varint maxFrame, maxBatch, workers
    ListKeys = 3,      ///< c->s: empty
    KeyList = 4,       ///< s->c: varint count, count x string
    QueryBatch = 5,    ///< c->s: varint count, count x request
    ResponseBatch = 6, ///< s->c: varint count, count x response
    ProtocolError = 7, ///< s->c: string diagnostic, then close
};

const char *toString(Opcode op);

/** Terminal status of one request, on the wire. */
enum class WireStatus : uint8_t
{
    Ok = 0,       ///< answered from a compiled directory
    NotFound = 1, ///< no profile stored under the key
    Rejected = 2, ///< shed by queue backpressure, or the profile could
                  ///< not be read right now — safe to retry
};

const char *toString(WireStatus s);

/** One decoded answer (the wire mirror of serve::Response; Rejected
 *  also carries backpressure sheds, which never reach the engine). */
struct WireResponse
{
    uint64_t id = 0;
    WireStatus status = WireStatus::Ok;
    bool weak = false;
    uint32_t bin = 0;
    double interval = 0.0; ///< binIntervals[bin], seconds
};

/** Limits a HelloAck advertises. */
struct ServerLimits
{
    uint64_t maxFrameBytes = kDefaultMaxFrameBytes;
    uint64_t maxBatchPerFrame = kDefaultMaxBatchPerFrame;
    uint64_t workers = 0;
};

/**
 * Decoder clamps applied to untrusted input. A hostile length field
 * can never cause an allocation past these: batch/key counts are
 * additionally cross-checked against the bytes actually present
 * before any reserve.
 */
struct DecodeLimits
{
    size_t maxFrameBytes = kDefaultMaxFrameBytes;
    size_t maxBatchPerFrame = kDefaultMaxBatchPerFrame;
    size_t maxKeyBytes = kDefaultMaxKeyBytes;
};

/** A parsed frame: points into the caller's receive buffer, valid
 *  only until that buffer moves. */
struct FrameView
{
    Opcode opcode = Opcode::Hello;
    uint8_t version = 0;
    const uint8_t *payload = nullptr;
    size_t payloadLen = 0;
};

/**
 * Try to extract one frame from `data[0..avail)`.
 *
 * Returns the number of bytes consumed (header + body + trailer) with
 * `*out` filled, or 0 when the buffer does not yet hold a complete
 * frame (read more and retry). Errors are terminal for the
 * connection: Corrupt (clamped length, CRC mismatch, short body) or
 * Parse (unknown version/opcode).
 */
common::Expected<size_t> tryExtractFrame(const uint8_t *data,
                                         size_t avail,
                                         const DecodeLimits &limits,
                                         FrameView *out);

/**
 * Append-only frame builder over a caller-owned byte buffer (the
 * connection's output buffer): begin(opcode), put*()s, end() — end()
 * patches the length prefix and appends the CRC32C trailer. Multiple
 * frames may be built back-to-back into one buffer.
 */
class FrameWriter
{
  public:
    explicit FrameWriter(std::vector<uint8_t> &buf) : buf_(buf) {}

    void begin(Opcode op);
    void putU8(uint8_t v);
    void putU32(uint32_t v);
    void putU64(uint64_t v);
    void putVarint(uint64_t v);
    void putBytes(const void *data, size_t len);
    /** varint length + raw bytes. */
    void putString(const std::string &s);
    /** Patch the length prefix and append the CRC32C trailer. */
    void end();

  private:
    std::vector<uint8_t> &buf_;
    size_t frameStart_ = 0; ///< offset of the length prefix
    bool open_ = false;
};

// ---- Whole-frame encoders -------------------------------------------

void encodeHello(std::vector<uint8_t> &buf);
void encodeHelloAck(std::vector<uint8_t> &buf,
                    const ServerLimits &limits);
void encodeListKeys(std::vector<uint8_t> &buf);
void encodeKeyList(std::vector<uint8_t> &buf,
                   const std::vector<std::string> &keys);
/** Encode `reqs[offset..offset+n)` as one QueryBatch frame. */
void encodeQueryBatch(std::vector<uint8_t> &buf,
                      const serve::Request *reqs, size_t n);
void encodeResponseBatch(std::vector<uint8_t> &buf,
                         const WireResponse *resps, size_t n);
void encodeProtocolError(std::vector<uint8_t> &buf,
                         const std::string &message);

// ---- Payload decoders (frame must carry the matching opcode) --------

/** Returns the Hello magic (caller checks against kHelloMagic). */
common::Expected<uint32_t> decodeHello(const FrameView &frame);
common::Expected<ServerLimits> decodeHelloAck(const FrameView &frame);
common::Status decodeKeyList(const FrameView &frame,
                             const DecodeLimits &limits,
                             std::vector<std::string> &out);
/** Appends decoded requests to `out` (ids are the client's). */
common::Status decodeQueryBatch(const FrameView &frame,
                                const DecodeLimits &limits,
                                std::vector<serve::Request> &out);
common::Status decodeResponseBatch(const FrameView &frame,
                                   const DecodeLimits &limits,
                                   std::vector<WireResponse> &out);
common::Expected<std::string>
decodeProtocolError(const FrameView &frame, const DecodeLimits &limits);

} // namespace net
} // namespace reaper

#endif // REAPER_NET_WIRE_H
