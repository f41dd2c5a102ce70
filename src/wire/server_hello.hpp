// ServerHello message: the server's final choice of version, cipher suite
// and extensions — the "negotiated" side of every figure in §5/§6.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "wire/extension_codec.hpp"
#include "wire/record.hpp"

namespace tls::wire {

struct ServerHello {
  std::uint16_t legacy_version = 0x0303;
  std::array<std::uint8_t, 32> random{};
  std::vector<std::uint8_t> session_id;
  std::uint16_t cipher_suite = 0;
  std::uint8_t compression_method = 0;
  std::vector<Extension> extensions;

  [[nodiscard]] bool has_extension(std::uint16_t type) const;
  [[nodiscard]] bool has_extension(tls::core::ExtensionType type) const {
    return has_extension(tls::core::wire_value(type));
  }
  /// Negotiated version: supported_versions (TLS 1.3) wins over the legacy
  /// field, matching RFC 8446 §4.1.3 and the paper's §6.4 methodology.
  [[nodiscard]] std::uint16_t negotiated_version() const;
  [[nodiscard]] std::optional<std::uint8_t> heartbeat_mode() const;
  [[nodiscard]] std::optional<std::uint16_t> key_share_group() const;

  [[nodiscard]] std::vector<std::uint8_t> serialize_body() const;
  /// Streams the handshake body into an existing writer (no framing).
  void write_body(ByteWriter& w) const;
  static ServerHello parse_body(std::span<const std::uint8_t> body);
  [[nodiscard]] std::vector<std::uint8_t> serialize_record() const;
  /// serialize_record into a reusable buffer: one pass, no intermediate
  /// body/fragment vectors, byte-identical output. `out` is replaced.
  void serialize_record_into(std::vector<std::uint8_t>& out) const;
  static ServerHello parse_record(std::span<const std::uint8_t> data);
  /// parse_record into an existing hello, keeping the capacity of its
  /// vectors and extension bodies. Same checks and error codes as
  /// parse_record; `out` is unspecified after a throw.
  static void parse_record_into(std::span<const std::uint8_t> data,
                                ServerHello& out);

  friend bool operator==(const ServerHello&, const ServerHello&) = default;
};

}  // namespace tls::wire
