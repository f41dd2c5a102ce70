#include "daemon/protocol.hpp"

#include <algorithm>
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
  // FNV-1a-64 over (type ++ payload) without concatenating: hash the type
  // byte, then continue over the payload from that result.
  const std::uint8_t type_byte = static_cast<std::uint8_t>(type);
  return tls::core::fnv1a64(payload, tls::core::fnv1a64({&type_byte, 1}));
}

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload) {
  tls::wire::ByteWriter w;
  w.u32(kFrameMagic);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  w.u64(frame_checksum(type, payload));
  return w.take();
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
  tls::wire::ByteReader r(payload);
  CapturePayload capture;
  capture.month_index = r.u32();
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
    field->assign(span.begin(), span.end());
  }
  r.expect_empty("capture payload");
  return capture;
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
  buffer_.clear();
  consumed_ = 0;
}

std::vector<Frame> FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  std::vector<Frame> out;
  if (poisoned()) return out;
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  for (;;) {
    const std::size_t avail = buffer_.size() - consumed_;
    if (avail < kFrameHeaderBytes) break;
    const std::uint8_t* head = buffer_.data() + consumed_;
    // Header validation happens the moment 9 bytes exist — magic, type,
    // and the declared length are all checked BEFORE the payload is
    // buffered, so an oversized length can never cause an allocation.
    if (load_u32(head) != kFrameMagic) {
      poison(DecodeError::kBadMagic, consumed_);
      return out;
    }
    const std::uint8_t type_byte = head[4];
    if (type_byte < static_cast<std::uint8_t>(FrameType::kHello) ||
        type_byte > static_cast<std::uint8_t>(FrameType::kFlight)) {
      poison(DecodeError::kBadType, consumed_);
      return out;
    }
    const std::uint32_t payload_len = load_u32(head + 5);
    if (payload_len > max_frame_bytes_) {
      poison(DecodeError::kOversized, consumed_);
      return out;
    }
    const std::size_t frame_len =
        kFrameHeaderBytes + payload_len + kFrameTrailerBytes;
    if (avail < frame_len) break;
    const std::uint8_t* payload = head + kFrameHeaderBytes;
    const std::uint64_t declared = load_u64(payload + payload_len);
    const auto type = static_cast<FrameType>(type_byte);
    if (frame_checksum(type, {payload, payload_len}) != declared) {
      poison(DecodeError::kBadChecksum, consumed_);
      return out;
    }
    Frame frame;
    frame.type = type;
    frame.payload.assign(payload, payload + payload_len);
    out.push_back(std::move(frame));
    consumed_ += frame_len;
    // Compact once the dead prefix dominates, amortizing the memmove.
    if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
      consumed_ = 0;
    }
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

std::vector<std::uint8_t> encode_credit_grant(std::uint32_t credits) {
  tls::wire::ByteWriter w;
  w.u32(credits);
  return w.take();
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
