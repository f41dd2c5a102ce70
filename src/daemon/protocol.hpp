// Wire protocol for the live-ingestion daemon (DESIGN.md §16).
//
// Transport framing: every message is one length-prefixed, checksummed
// frame —
//
//   magic      u32  'TLSN' (0x544C534E)
//   type       u8   FrameType
//   payload    u32  payload length in bytes
//   payload    ...  type-specific body
//   checksum   u64  frame_checksum(type, payload), big-endian
//
// The checksum is FNV-1a over 64-bit little-endian payload words, each
// step rotated, finished by murmur3's fmix64 (tls::core::word_hash64).
// A sensor that still writes the earlier byte-serial FNV-1a-64 trailer
// fails closed: its first frame poisons the connection with kBadChecksum.
//
// The 9-byte header is parsed as soon as it is complete, and the declared
// payload length is validated against the decoder's configurable
// `max_frame_bytes` limit BEFORE any payload allocation happens — a
// hostile 4 GiB length field costs the attacker a closed connection, not
// the daemon a 4 GiB allocation. The checksum is verified once the whole
// frame is buffered; a mismatch poisons the connection (one bad client
// cannot desynchronize the stream into plausible-looking garbage).
//
// Credit-based backpressure: the daemon grants each connection a credit
// window on accept (kCreditGrant). Every kCapture frame spends one
// credit; credits are replenished (batched into further kCreditGrant
// frames) only after the capture is resolved — ingested OR shed. A client
// with zero credits must hold its captures (the loadgen counts these as
// client-side backpressure drops; a well-behaved sensor would buffer).
// Sending without credit is a protocol violation: the daemon books it,
// sheds the capture, and closes the connection. This moves queueing to
// the edge where it can be counted, instead of the kernel socket buffer
// where it cannot.
//
// Everything here is deliberately transport-agnostic (pure byte-span in,
// byte-vector out) so the fuzzers in tests/test_fuzz.cpp can drive the
// decoder and the credit state machines without sockets.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tlscore/dates.hpp"
#include "wire/errors.hpp"

namespace tls::daemon {

inline constexpr std::uint32_t kFrameMagic = 0x544C534E;  // "TLSN"
/// Fixed bytes before the payload: magic u32 + type u8 + length u32.
inline constexpr std::size_t kFrameHeaderBytes = 9;
/// Fixed bytes after the payload: the u64 frame_checksum, big-endian.
inline constexpr std::size_t kFrameTrailerBytes = 8;
/// Default cap on a frame's declared payload length. Generous for a
/// capture (four TLS records plus ~20 bytes of framing) yet small enough
/// that even a fully buffered frame per connection stays cheap.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 1u << 20;  // 1 MiB

enum class FrameType : std::uint8_t {
  kHello = 1,        // client -> daemon: version + client name
  kCapture = 2,      // client -> daemon: one serialized wire capture
  kCreditGrant = 3,  // daemon -> client: u32 credits added to the window
  kQueryStats = 4,   // client -> daemon: request live aggregate counters
  kStats = 5,        // daemon -> client: key=value aggregate text
  kQueryMetrics = 6, // client -> daemon: request Prometheus exposition
  kMetrics = 7,      // daemon -> client: text/plain exposition body
  kGoodbye = 8,      // either direction: clean half-close announcement
  kQueryTrace = 9,   // client -> daemon: request stage-latency waterfall
  kTrace = 10,       // daemon -> client: text waterfall + exemplar lines
  kQueryFlight = 11, // client -> daemon: request flight-recorder dump
  kFlight = 12,      // daemon -> client: FLIGHT.bin bytes of the live rings
};

/// True for the types a client may legally send.
[[nodiscard]] bool is_client_frame(FrameType type);

/// The reply type of a query: kQueryStats -> kStats, kQueryMetrics ->
/// kMetrics, kQueryTrace -> kTrace, kQueryFlight -> kFlight. Nothing for a
/// type that is not a query.
[[nodiscard]] std::optional<FrameType> reply_for(FrameType request);

/// One decoded frame: the type plus its owned payload bytes.
struct Frame {
  FrameType type = FrameType::kHello;
  std::vector<std::uint8_t> payload;
};

/// One decoded frame as a view: `payload` points into the FrameDecoder's
/// buffer and stays valid until that decoder's next append() (or its
/// destruction). Copy the bytes out to keep them longer.
struct FrameView {
  FrameType type = FrameType::kHello;
  std::span<const std::uint8_t> payload;
};

/// The frame checksum, word-at-a-time over the payload:
///
///   h = 0xcbf29ce484222325 ^ type ^ (payload_len << 8)
///   for each full 8-byte little-endian word w:
///     h = rotl64((h ^ w) * 0x100000001b3, 29)
///   w = the last k = payload_len % 8 bytes (possibly none), little-endian
///   h = rotl64((h ^ w ^ (k << 56)) * 0x100000001b3, 29)
///   h = fmix64(h)   (murmur3's 64-bit finalizer)
///
/// Every step is a bijection of the state, so any corruption confined to
/// one 8-byte word is always caught.
[[nodiscard]] std::uint64_t frame_checksum(
    FrameType type, std::span<const std::uint8_t> payload);

/// Serializes one frame (header + payload + checksum).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameType type, std::span<const std::uint8_t> payload);

/// Appends one serialized frame to `out`, with no temporary: the form for
/// an outbound buffer that is reused across frames.
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload);

// ---------------------------------------------------------------------------
// Capture payload codec
// ---------------------------------------------------------------------------

/// The body of a kCapture frame: exactly the arguments of one
/// PassiveMonitor::observe_wire call (or an SSLv2 tally when `sslv2`).
///
///   month   u32   linear month index (year*12 + month-1)
///   year    u16 | month u8 | day u8    civil date of the connection
///   flags   u8    bit0 success, bit1 used_fallback, bit2 sslv2
///   client  u32-length-prefixed bytes  ClientHello record
///   server  u32-length-prefixed bytes  ServerHello record (may be empty)
///   ske     u32-length-prefixed bytes  ServerKeyExchange record (may be empty)
///   alert   u32-length-prefixed bytes  Alert record (may be empty)
struct CapturePayload {
  std::uint32_t month_index = 0;
  tls::core::Date day{};
  bool success = false;
  bool used_fallback = false;
  bool sslv2 = false;
  std::vector<std::uint8_t> client;
  std::vector<std::uint8_t> server;
  std::vector<std::uint8_t> ske;
  std::vector<std::uint8_t> alert;
};

[[nodiscard]] std::vector<std::uint8_t> encode_capture(
    const CapturePayload& capture);

/// Parses a kCapture payload. Throws tls::wire::ParseError on malformed
/// input (truncated, trailing bytes, invalid civil date) — callers book
/// the failure in the taxonomy; the daemon never lets it propagate.
[[nodiscard]] CapturePayload decode_capture(
    std::span<const std::uint8_t> payload);

/// decode_capture into an existing payload, reusing the capacity of its
/// four field vectors: once they have grown to the captures seen, a
/// decode allocates nothing. Every field is overwritten (a field absent
/// from this capture comes back empty). On a throw `capture` holds a
/// partial decode and must not be used.
void decode_capture_into(std::span<const std::uint8_t> payload,
                         CapturePayload& capture);

/// Frees (and empties) every field of `capture` whose capacity exceeds
/// `max_field_capacity`, so a payload that is recycled across captures
/// does not keep the memory of the largest one it ever held.
void release_oversized_fields(CapturePayload& capture,
                              std::size_t max_field_capacity);

// ---------------------------------------------------------------------------
// Incremental frame decoder
// ---------------------------------------------------------------------------

/// Why a decoder poisoned itself. Each maps onto a ParseErrorCode for
/// taxonomy booking (see `parse_code_for`).
enum class DecodeError : std::uint8_t {
  kNone = 0,
  kBadMagic,       // stream desync or garbage bytes
  kBadType,        // unknown FrameType
  kOversized,      // declared length exceeds max_frame_bytes
  kBadChecksum,    // frame buffered fully but the trailer does not match
};

[[nodiscard]] tls::wire::ParseErrorCode parse_code_for(DecodeError error);
[[nodiscard]] const char* decode_error_name(DecodeError error);

/// Incremental, never-throwing frame decoder. Append arbitrary chunks
/// (as read(2) returns them); completed frames pop out of next() in
/// order. The first malformed byte poisons the decoder permanently —
/// after a framing error nothing later in the stream can be trusted, so
/// the connection must be dropped. Oversized declared lengths are
/// rejected at header-parse time, before any payload buffer is allocated.
///
/// View lifetime: next() returns views into the decoder's own buffer, and
/// only append() moves or reallocates that buffer. So every view stays
/// valid until the next append(); the usual loop is one append() per
/// read, then next() until it returns nothing.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Buffers `bytes` for next(). This is the only call that moves the
  /// buffer: it first drops the prefix already returned by next() (free
  /// when nothing is left over; a memmove only once that prefix dominates),
  /// which invalidates every view handed out before. Ignored once
  /// poisoned.
  void append(std::span<const std::uint8_t> bytes);

  /// The next complete frame, or nothing on partial input or once
  /// poisoned. A malformed header or checksum poisons the decoder here,
  /// and every later call returns nothing.
  std::optional<FrameView> next();

  /// append() plus next() until it returns nothing, copying each frame
  /// out: the frames completed by this feed (empty on partial input).
  std::vector<Frame> feed(std::span<const std::uint8_t> bytes);

  [[nodiscard]] bool poisoned() const { return error_ != DecodeError::kNone; }
  [[nodiscard]] DecodeError error() const { return error_; }
  /// The raw prefix that triggered the poison (header bytes or the whole
  /// frame for checksum failures), capped for quarantine booking.
  [[nodiscard]] const std::vector<std::uint8_t>& poison_prefix() const {
    return poison_prefix_;
  }
  /// Bytes currently buffered awaiting frame completion.
  [[nodiscard]] std::size_t buffered_bytes() const {
    return buffer_.size() - consumed_;
  }
  [[nodiscard]] std::uint32_t max_frame_bytes() const {
    return max_frame_bytes_;
  }

 private:
  void poison(DecodeError error, std::size_t prefix_at);

  std::uint32_t max_frame_bytes_;
  std::vector<std::uint8_t> buffer_;
  /// Prefix of buffer_ already returned by next(); append() compacts it
  /// lazily so a slow-loris byte-at-a-time writer does not trigger O(n^2)
  /// memmoves.
  std::size_t consumed_ = 0;
  DecodeError error_ = DecodeError::kNone;
  std::vector<std::uint8_t> poison_prefix_;
};

// ---------------------------------------------------------------------------
// Credit state machines
// ---------------------------------------------------------------------------

/// Daemon-side credit accounting for one connection. `window` credits are
/// granted on accept; each admitted capture consumes one; each resolved
/// capture (ingested or shed) returns one, and returned credits are
/// flushed to the client in batches via take_grant() so a grant frame is
/// not written per capture.
class CreditGate {
 public:
  explicit CreditGate(std::uint32_t window = 64) : window_(window) {}

  [[nodiscard]] std::uint32_t window() const { return window_; }
  /// Credits currently spent by the client and not yet returned.
  [[nodiscard]] std::uint32_t outstanding() const { return outstanding_; }
  /// Resolved credits awaiting a grant frame.
  [[nodiscard]] std::uint32_t returnable() const { return returnable_; }

  /// Client sent a capture: spend one credit. Returns false on a credit
  /// violation (client overran its window) — the caller books the
  /// violation and closes the connection.
  [[nodiscard]] bool consume();

  /// A previously consumed capture was resolved (ingested or shed); its
  /// credit becomes returnable.
  void complete();

  /// Drains the returnable credits (for one kCreditGrant frame), or 0 if
  /// nothing is pending.
  [[nodiscard]] std::uint32_t take_grant();

 private:
  std::uint32_t window_;
  std::uint32_t outstanding_ = 0;
  std::uint32_t returnable_ = 0;
};

/// Client-side mirror: tracks how many captures may be sent right now.
/// Hostile/buggy grant frames must never wedge or overflow the counter —
/// grants saturate instead of wrapping (fuzzed in tests/test_fuzz.cpp).
class CreditClient {
 public:
  [[nodiscard]] std::uint32_t available() const { return available_; }

  /// Applies a kCreditGrant. Saturates at UINT32_MAX.
  void on_grant(std::uint32_t credits);

  /// Spend one credit for a capture about to be sent. Returns false when
  /// no credit is available (the open-loop loadgen counts this as a
  /// backpressure drop).
  [[nodiscard]] bool try_send();

 private:
  std::uint32_t available_ = 0;
};

// ---------------------------------------------------------------------------
// Small payload helpers
// ---------------------------------------------------------------------------

/// Appends a whole kCreditGrant frame (payload: a single u32) to `out`.
void append_credit_grant(std::vector<std::uint8_t>& out,
                         std::uint32_t credits);
/// Parses a grant payload; nullopt on malformed input (wrong size).
[[nodiscard]] std::optional<std::uint32_t> decode_credit_grant(
    std::span<const std::uint8_t> payload);

/// Parses a kStats payload, the `key=value` lines of
/// NotaryDaemon::stats_text(), into key -> value. Lines without '=' or
/// whose value is not a whole decimal u64 are skipped.
[[nodiscard]] std::map<std::string, std::uint64_t> decode_stats(
    std::string_view text);

}  // namespace tls::daemon
