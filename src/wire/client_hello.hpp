// ClientHello message (RFC 5246 §7.4.1.2 with RFC 8446-compatible
// extensions). This is the message the Notary fingerprints and the message
// every simulated client emits.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tlscore/cipher_suites.hpp"
#include "tlscore/version.hpp"
#include "wire/extension_codec.hpp"
#include "wire/record.hpp"

namespace tls::wire {

struct ClientHello {
  std::uint16_t legacy_version = 0x0303;
  std::array<std::uint8_t, 32> random{};
  std::vector<std::uint8_t> session_id;
  std::vector<std::uint16_t> cipher_suites;
  std::vector<std::uint8_t> compression_methods{0};
  std::vector<Extension> extensions;

  // ---- typed extension accessors (nullopt when the extension is absent) --

  [[nodiscard]] bool has_extension(std::uint16_t type) const;
  [[nodiscard]] bool has_extension(tls::core::ExtensionType type) const {
    return has_extension(tls::core::wire_value(type));
  }
  [[nodiscard]] std::optional<std::string> server_name() const;
  [[nodiscard]] std::optional<std::vector<std::uint16_t>> supported_groups()
      const;
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> ec_point_formats()
      const;
  /// supported_versions list (TLS 1.3 clients); nullopt when absent.
  [[nodiscard]] std::optional<std::vector<std::uint16_t>> supported_versions()
      const;
  [[nodiscard]] std::optional<std::uint8_t> heartbeat_mode() const;

  /// Effective maximum version offered: max of supported_versions when
  /// present (TLS 1.3 semantics, §6.4), otherwise legacy_version.
  [[nodiscard]] std::uint16_t max_offered_version() const;

  /// True if any offered cipher suite (ignoring SCSVs/GREASE) satisfies the
  /// predicate — the "client advertises X" relation in Figs. 3, 6, 7, 10.
  template <typename Pred>
  [[nodiscard]] bool offers(Pred&& pred) const {
    for (const auto id : cipher_suites) {
      const auto* info = tls::core::find_cipher_suite(id);
      if (info != nullptr && !info->scsv && pred(*info)) return true;
    }
    return false;
  }

  // ---- wire codec ----

  /// Serializes the handshake body (no record / handshake framing).
  [[nodiscard]] std::vector<std::uint8_t> serialize_body() const;
  /// Streams the handshake body into an existing writer (no framing).
  void write_body(ByteWriter& w) const;
  static ClientHello parse_body(std::span<const std::uint8_t> body);

  /// Full record: TLSPlaintext(handshake(client_hello)).
  [[nodiscard]] std::vector<std::uint8_t> serialize_record() const;
  /// serialize_record into a reusable buffer: one pass, no intermediate
  /// body/fragment vectors, byte-identical output. `out` is replaced.
  void serialize_record_into(std::vector<std::uint8_t>& out) const;
  static ClientHello parse_record(std::span<const std::uint8_t> data);
  /// parse_record into an existing hello, keeping the capacity of its
  /// vectors and extension bodies, so decoding into one reused hello stops
  /// allocating. Same checks and error codes as parse_record; `out` holds a
  /// valid hello only after a call that returned, never after a throw.
  static void parse_record_into(std::span<const std::uint8_t> data,
                                ClientHello& out);

  friend bool operator==(const ClientHello&, const ClientHello&) = default;
};

}  // namespace tls::wire
