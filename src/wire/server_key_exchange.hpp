// Minimal ECDHE ServerKeyExchange codec (RFC 4492 §5.4): enough structure
// to carry the server's chosen named curve on the wire, which is what the
// curve-usage analysis (§6.3.3) parses. Key material and signature are
// synthesized stubs — the simulator never computes ECDH.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "wire/record.hpp"

namespace tls::wire {

struct EcdheServerKeyExchange {
  std::uint16_t named_curve = 23;
  std::vector<std::uint8_t> public_point;
  std::vector<std::uint8_t> signature;

  [[nodiscard]] std::vector<std::uint8_t> serialize_body() const;
  static EcdheServerKeyExchange parse_body(std::span<const std::uint8_t> body);
  [[nodiscard]] std::vector<std::uint8_t> serialize_record(
      std::uint16_t record_version) const;
  /// serialize_record into a reusable buffer: one pass, no intermediate
  /// body/fragment vectors. Byte-identical to serialize_record.
  void serialize_record_into(std::uint16_t record_version,
                             std::vector<std::uint8_t>& out) const;
  static EcdheServerKeyExchange parse_record(
      std::span<const std::uint8_t> data);
  /// parse_record into an existing message, keeping its vector capacity;
  /// `out` is unspecified after a throw.
  static void parse_record_into(std::span<const std::uint8_t> data,
                                EcdheServerKeyExchange& out);

  /// Stub message for `curve` with deterministic filler key material.
  static EcdheServerKeyExchange stub(std::uint16_t curve);
};

}  // namespace tls::wire
