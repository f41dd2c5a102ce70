#include "daemon/protocol.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <stdexcept>

#include "tlscore/fnv.hpp"
#include "wire/buffer.hpp"

namespace tls::daemon {
namespace {

/// Quarantine booking only needs the offending prefix, not the payload.
constexpr std::size_t kPoisonPrefixCap = 64;

std::uint32_t load_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 3; i >= 0; --i, v >>= 8) p[i] = static_cast<std::uint8_t>(v);
}

void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 7; i >= 0; --i, v >>= 8) p[i] = static_cast<std::uint8_t>(v);
}

}  // namespace

bool is_client_frame(FrameType type) {
  switch (type) {
    case FrameType::kHello:
    case FrameType::kCapture:
    case FrameType::kQueryStats:
    case FrameType::kQueryMetrics:
    case FrameType::kQueryTrace:
    case FrameType::kQueryFlight:
    case FrameType::kGoodbye:
      return true;
    case FrameType::kCreditGrant:
    case FrameType::kStats:
    case FrameType::kMetrics:
    case FrameType::kTrace:
    case FrameType::kFlight:
      return false;
  }
  return false;
}

std::uint64_t frame_checksum(FrameType type,
                             std::span<const std::uint8_t> payload) {
  // The frame type and the payload length seed the shared word hash.
  return tls::core::word_hash64(
      payload, tls::core::kFnvOffset ^ static_cast<std::uint8_t>(type) ^
                   (static_cast<std::uint64_t>(payload.size()) << 8));
}

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  append_frame(out, type, payload);
  return out;
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload) {
  const std::size_t at = out.size();
  out.resize(at + kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  std::uint8_t* p = out.data() + at;
  store_u32(p, kFrameMagic);
  p[4] = static_cast<std::uint8_t>(type);
  store_u32(p + 5, static_cast<std::uint32_t>(payload.size()));
  std::copy(payload.begin(), payload.end(), p + kFrameHeaderBytes);
  store_u64(p + kFrameHeaderBytes + payload.size(),
            frame_checksum(type, payload));
}

std::vector<std::uint8_t> encode_capture(const CapturePayload& capture) {
  tls::wire::ByteWriter w;
  w.u32(capture.month_index);
  w.u16(static_cast<std::uint16_t>(capture.day.year()));
  w.u8(static_cast<std::uint8_t>(capture.day.month()));
  w.u8(static_cast<std::uint8_t>(capture.day.day()));
  std::uint8_t flags = 0;
  if (capture.success) flags |= 0x01;
  if (capture.used_fallback) flags |= 0x02;
  if (capture.sslv2) flags |= 0x04;
  w.u8(flags);
  for (const auto* field :
       {&capture.client, &capture.server, &capture.ske, &capture.alert}) {
    w.u32(static_cast<std::uint32_t>(field->size()));
    w.bytes(*field);
  }
  return w.take();
}

CapturePayload decode_capture(std::span<const std::uint8_t> payload) {
  CapturePayload capture;
  decode_capture_into(payload, capture);
  return capture;
}

void decode_capture_into(std::span<const std::uint8_t> payload,
                         CapturePayload& capture) {
  tls::wire::ByteReader r(payload);
  capture.month_index = r.u32();
  if (capture.month_index > tls::core::kMaxMonthIndex) {
    // The snapshot codec refuses such an index, so observing it would make
    // every later checkpoint of the aggregate undecodable.
    throw tls::wire::ParseError(tls::wire::ParseErrorCode::kBadValue,
                                "capture: month index out of range");
  }
  const int year = static_cast<int>(r.u16());
  const int month = static_cast<int>(r.u8());
  const int day = static_cast<int>(r.u8());
  const std::uint8_t flags = r.u8();
  if ((flags & ~0x07u) != 0) {
    throw tls::wire::ParseError(tls::wire::ParseErrorCode::kBadValue,
                                "capture: unknown flag bits");
  }
  capture.success = (flags & 0x01) != 0;
  capture.used_fallback = (flags & 0x02) != 0;
  capture.sslv2 = (flags & 0x04) != 0;
  try {
    capture.day = tls::core::Date(year, month, day);
  } catch (const std::invalid_argument&) {
    throw tls::wire::ParseError(tls::wire::ParseErrorCode::kBadValue,
                                "capture: invalid civil date");
  }
  for (auto* field :
       {&capture.client, &capture.server, &capture.ske, &capture.alert}) {
    const std::uint32_t len = r.u32();
    if (len > r.remaining()) {
      throw tls::wire::ParseError(tls::wire::ParseErrorCode::kBadLength,
                                  "capture: field length exceeds payload");
    }
    auto span = r.bytes(len);
    // Grow to a power of two, so a recycled payload settles on a size
    // class after a few captures instead of regrowing for each larger one.
    if (len > field->capacity()) field->reserve(std::bit_ceil(len));
    field->assign(span.begin(), span.end());
  }
  r.expect_empty("capture payload");
}

void release_oversized_fields(CapturePayload& capture,
                              std::size_t max_field_capacity) {
  for (auto* field :
       {&capture.client, &capture.server, &capture.ske, &capture.alert}) {
    if (field->capacity() > max_field_capacity) {
      std::vector<std::uint8_t>().swap(*field);
    }
  }
}

tls::wire::ParseErrorCode parse_code_for(DecodeError error) {
  switch (error) {
    case DecodeError::kBadMagic:
      return tls::wire::ParseErrorCode::kBadValue;
    case DecodeError::kBadType:
      return tls::wire::ParseErrorCode::kUnsupported;
    case DecodeError::kOversized:
      return tls::wire::ParseErrorCode::kBadLength;
    case DecodeError::kBadChecksum:
      return tls::wire::ParseErrorCode::kBadValue;
    case DecodeError::kNone:
      break;
  }
  return tls::wire::ParseErrorCode::kBadValue;
}

const char* decode_error_name(DecodeError error) {
  switch (error) {
    case DecodeError::kNone: return "none";
    case DecodeError::kBadMagic: return "bad_magic";
    case DecodeError::kBadType: return "bad_type";
    case DecodeError::kOversized: return "oversized";
    case DecodeError::kBadChecksum: return "bad_checksum";
  }
  return "unknown";
}

void FrameDecoder::poison(DecodeError error, std::size_t prefix_at) {
  error_ = error;
  const std::size_t avail = buffer_.size() - prefix_at;
  const std::size_t take = std::min(avail, kPoisonPrefixCap);
  poison_prefix_.assign(buffer_.begin() + static_cast<std::ptrdiff_t>(prefix_at),
                        buffer_.begin() +
                            static_cast<std::ptrdiff_t>(prefix_at + take));
  // Mark everything consumed rather than clearing: a view handed out
  // before the poison keeps its bytes until the next append(), as promised.
  consumed_ = buffer_.size();
}

void FrameDecoder::append(std::span<const std::uint8_t> bytes) {
  if (poisoned()) return;
  // Compact the prefix next() already returned: free when nothing is left
  // over, a memmove only once the dead prefix dominates.
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  // Grow to a power of two, as decode_capture_into does: reads of varying
  // size then stop regrowing the buffer once it fits the largest.
  const std::size_t need = buffer_.size() + bytes.size();
  if (need > buffer_.capacity()) buffer_.reserve(std::bit_ceil(need));
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<FrameView> FrameDecoder::next() {
  if (poisoned()) return std::nullopt;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* head = buffer_.data() + consumed_;
  // Header validation happens the moment 9 bytes exist — magic, type, and
  // the declared length are all checked BEFORE the payload is buffered, so
  // an oversized length can never cause an allocation.
  if (load_u32(head) != kFrameMagic) {
    poison(DecodeError::kBadMagic, consumed_);
    return std::nullopt;
  }
  const std::uint8_t type_byte = head[4];
  if (type_byte < static_cast<std::uint8_t>(FrameType::kHello) ||
      type_byte > static_cast<std::uint8_t>(FrameType::kFlight)) {
    poison(DecodeError::kBadType, consumed_);
    return std::nullopt;
  }
  const std::uint32_t payload_len = load_u32(head + 5);
  if (payload_len > max_frame_bytes_) {
    poison(DecodeError::kOversized, consumed_);
    return std::nullopt;
  }
  const std::size_t frame_len =
      kFrameHeaderBytes + payload_len + kFrameTrailerBytes;
  if (avail < frame_len) return std::nullopt;
  const std::uint8_t* payload = head + kFrameHeaderBytes;
  const std::uint64_t declared = load_u64(payload + payload_len);
  const auto type = static_cast<FrameType>(type_byte);
  if (frame_checksum(type, {payload, payload_len}) != declared) {
    poison(DecodeError::kBadChecksum, consumed_);
    return std::nullopt;
  }
  consumed_ += frame_len;
  return FrameView{type, {payload, payload_len}};
}

std::vector<Frame> FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  std::vector<Frame> out;
  append(bytes);
  while (const auto view = next()) {
    out.push_back(
        Frame{view->type, {view->payload.begin(), view->payload.end()}});
  }
  return out;
}

bool CreditGate::consume() {
  // Credits the daemon has resolved but not yet granted back (returnable_)
  // are still accounted against the window: an honest client cannot spend
  // them because it has not received them yet, so a capture that would push
  // outstanding + returnable past the window is a protocol violation, not a
  // race. Counting both keeps "returnable + outstanding <= window" a hard
  // invariant rather than a comment.
  if (outstanding_ + returnable_ >= window_) return false;
  ++outstanding_;
  return true;
}

void CreditGate::complete() {
  // complete() without a matching consume() is a daemon-side programming
  // error; clamping (instead of wrapping) keeps the invariant
  // "returnable + outstanding <= window" unconditionally true.
  if (outstanding_ == 0) return;
  --outstanding_;
  if (returnable_ < window_) ++returnable_;
}

std::uint32_t CreditGate::take_grant() {
  const std::uint32_t grant = returnable_;
  returnable_ = 0;
  return grant;
}

void CreditClient::on_grant(std::uint32_t credits) {
  const std::uint64_t next =
      static_cast<std::uint64_t>(available_) + credits;
  available_ = next > UINT32_MAX ? UINT32_MAX
                                 : static_cast<std::uint32_t>(next);
}

bool CreditClient::try_send() {
  if (available_ == 0) return false;
  --available_;
  return true;
}

void append_credit_grant(std::vector<std::uint8_t>& out,
                         std::uint32_t credits) {
  std::uint8_t payload[4];
  store_u32(payload, credits);
  append_frame(out, FrameType::kCreditGrant, payload);
}

std::optional<std::uint32_t> decode_credit_grant(
    std::span<const std::uint8_t> payload) {
  if (payload.size() != 4) return std::nullopt;
  return load_u32(payload.data());
}

std::optional<FrameType> reply_for(FrameType request) {
  switch (request) {
    case FrameType::kQueryStats: return FrameType::kStats;
    case FrameType::kQueryMetrics: return FrameType::kMetrics;
    case FrameType::kQueryTrace: return FrameType::kTrace;
    case FrameType::kQueryFlight: return FrameType::kFlight;
    default: return std::nullopt;
  }
}

std::map<std::string, std::uint64_t> decode_stats(std::string_view text) {
  std::map<std::string, std::uint64_t> stats;
  while (!text.empty()) {
    const auto eol = std::min(text.find('\n'), text.size());
    const auto line = text.substr(0, eol);
    text.remove_prefix(std::min(eol + 1, text.size()));
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) continue;
    std::uint64_t value = 0;
    const char* end = line.data() + line.size();
    const auto [ptr, ec] = std::from_chars(line.data() + eq + 1, end, value);
    if (ec == std::errc() && ptr == end) {
      stats[std::string(line.substr(0, eq))] = value;
    }
  }
  return stats;
}

}  // namespace tls::daemon
