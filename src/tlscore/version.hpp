// SSL/TLS protocol version identifiers, wire encodings, and release dates
// (paper Table 1), plus the TLS 1.3 draft version space used by the
// supported_versions analysis in §6.4.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "tlscore/dates.hpp"

namespace tls::core {

/// Wire value of a protocol version as carried in record / hello fields.
/// TLS 1.3 drafts use 0x7f00 | draft, Google experimental variants 0x7exx.
enum class ProtocolVersion : std::uint16_t {
  kSsl2 = 0x0002,
  kSsl3 = 0x0300,
  kTls10 = 0x0301,
  kTls11 = 0x0302,
  kTls12 = 0x0303,
  kTls13 = 0x0304,
  kTls13Draft18 = 0x7f12,
  kTls13Draft22 = 0x7f16,
  kTls13Draft23 = 0x7f17,
  kTls13Draft28 = 0x7f1c,
  kTls13GoogleExperiment2 = 0x7e02,
};

constexpr std::uint16_t wire_value(ProtocolVersion v) {
  return static_cast<std::uint16_t>(v);
}

/// True for final TLS 1.3 (0x0304), any 0x7f-draft, or a Google 0x7e
/// experiment, given as a wire value.
constexpr bool is_tls13_wire(std::uint16_t w) {
  return w == 0x0304 || (w & 0xff00) == 0x7f00 || (w & 0xff00) == 0x7e00;
}

constexpr bool is_tls13_family(ProtocolVersion v) {
  return is_tls13_wire(wire_value(v));
}

constexpr bool is_grease_version(std::uint16_t w) {
  return (w & 0x0f0f) == 0x0a0a && ((w >> 8) == (w & 0xff));
}

/// Human-readable name ("TLSv1.2", "TLS 1.3 draft-28", ...).
std::string version_name(ProtocolVersion v);
std::string version_name(std::uint16_t wire);

/// Release date of an official protocol version (paper Table 1).
/// Returns nullopt for drafts/experiments.
std::optional<Date> version_release_date(ProtocolVersion v);

/// Ordering usable for negotiation: SSL2 < SSL3 < 1.0 < 1.1 < 1.2 < 1.3.
/// Drafts rank between TLS 1.2 and TLS 1.3 (ordered by draft number);
/// returns a comparable rank.
int version_rank(ProtocolVersion v);

/// All official versions in ascending order.
inline constexpr ProtocolVersion kOfficialVersions[] = {
    ProtocolVersion::kSsl2,  ProtocolVersion::kSsl3,  ProtocolVersion::kTls10,
    ProtocolVersion::kTls11, ProtocolVersion::kTls12, ProtocolVersion::kTls13,
};

}  // namespace tls::core
