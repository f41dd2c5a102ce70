#include "wire/alert.hpp"

namespace tls::wire {

std::string_view alert_description_name(AlertDescription d) {
  switch (d) {
    case AlertDescription::kCloseNotify: return "close_notify";
    case AlertDescription::kUnexpectedMessage: return "unexpected_message";
    case AlertDescription::kBadRecordMac: return "bad_record_mac";
    case AlertDescription::kHandshakeFailure: return "handshake_failure";
    case AlertDescription::kIllegalParameter: return "illegal_parameter";
    case AlertDescription::kDecodeError: return "decode_error";
    case AlertDescription::kProtocolVersion: return "protocol_version";
    case AlertDescription::kInsufficientSecurity:
      return "insufficient_security";
    case AlertDescription::kInternalError: return "internal_error";
    case AlertDescription::kInappropriateFallback:
      return "inappropriate_fallback";
    case AlertDescription::kUserCanceled: return "user_canceled";
    case AlertDescription::kNoRenegotiation: return "no_renegotiation";
    case AlertDescription::kUnsupportedExtension:
      return "unsupported_extension";
  }
  return "unknown";
}

std::vector<std::uint8_t> Alert::serialize_record(
    std::uint16_t record_version) const {
  Record rec;
  rec.type = ContentType::kAlert;
  rec.legacy_version = record_version;
  rec.fragment = {static_cast<std::uint8_t>(level),
                  static_cast<std::uint8_t>(description)};
  return rec.serialize();
}

void Alert::serialize_record_into(std::uint16_t record_version,
                                  std::vector<std::uint8_t>& out) const {
  out.clear();
  out.push_back(static_cast<std::uint8_t>(ContentType::kAlert));
  out.push_back(static_cast<std::uint8_t>(record_version >> 8));
  out.push_back(static_cast<std::uint8_t>(record_version & 0xff));
  out.push_back(0);
  out.push_back(2);
  out.push_back(static_cast<std::uint8_t>(level));
  out.push_back(static_cast<std::uint8_t>(description));
}

Alert Alert::parse_record(std::span<const std::uint8_t> data) {
  const auto fragment = record_fragment_view(data, ContentType::kAlert);
  if (fragment.size() != 2) {
    throw ParseError(ParseErrorCode::kBadLength, "alert body != 2 bytes");
  }
  const auto level = fragment[0];
  if (level != 1 && level != 2) {
    throw ParseError(ParseErrorCode::kBadValue, "alert level");
  }
  Alert a;
  a.level = static_cast<AlertLevel>(level);
  a.description = static_cast<AlertDescription>(fragment[1]);
  return a;
}

}  // namespace tls::wire
