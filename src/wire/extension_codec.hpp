// Typed codecs for the extension bodies the study inspects. An Extension is
// carried as (type, opaque body); these helpers encode/decode the bodies of
// the extensions that matter for fingerprinting and the analyses:
// server_name, supported_groups, ec_point_formats, supported_versions,
// signature_algorithms, ALPN, heartbeat, session_ticket, renegotiation_info,
// encrypt_then_mac, key_share.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tlscore/extensions.hpp"
#include "wire/buffer.hpp"

namespace tls::wire {

struct Extension {
  std::uint16_t type = 0;
  std::vector<std::uint8_t> body;

  friend bool operator==(const Extension&, const Extension&) = default;
};

// ---- builders (ClientHello direction unless noted) ----

Extension make_server_name(std::string_view host);
Extension make_supported_groups(std::span<const std::uint16_t> groups);
Extension make_ec_point_formats(std::span<const std::uint8_t> formats);
Extension make_supported_versions_client(
    std::span<const std::uint16_t> versions);
Extension make_supported_versions_server(std::uint16_t version);
Extension make_signature_algorithms(std::span<const std::uint16_t> schemes);
Extension make_alpn(std::span<const std::string> protocols);
/// mode: 1 = peer_allowed_to_send, 2 = peer_not_allowed_to_send (RFC 6520).
Extension make_heartbeat(std::uint8_t mode);
Extension make_session_ticket(std::span<const std::uint8_t> ticket = {});
Extension make_renegotiation_info(
    std::span<const std::uint8_t> verify_data = {});
Extension make_encrypt_then_mac();
Extension make_extended_master_secret();
Extension make_status_request();
Extension make_sct();
Extension make_padding(std::size_t n);
/// Client key_share with empty (stub) key material per group — enough for
/// negotiation simulation; we never perform the actual ECDH.
Extension make_key_share_client(std::span<const std::uint16_t> groups);
Extension make_key_share_server(std::uint16_t group);
Extension make_psk_key_exchange_modes(std::span<const std::uint8_t> modes);
Extension make_grease_extension(std::uint16_t grease_value);

// ---- parsers ----

std::string parse_server_name(std::span<const std::uint8_t> body);
std::vector<std::uint16_t> parse_supported_groups(
    std::span<const std::uint8_t> body);
std::vector<std::uint8_t> parse_ec_point_formats(
    std::span<const std::uint8_t> body);
std::vector<std::uint16_t> parse_supported_versions_client(
    std::span<const std::uint8_t> body);
std::uint16_t parse_supported_versions_server(
    std::span<const std::uint8_t> body);
std::vector<std::uint16_t> parse_signature_algorithms(
    std::span<const std::uint8_t> body);
std::vector<std::string> parse_alpn(std::span<const std::uint8_t> body);
std::uint8_t parse_heartbeat(std::span<const std::uint8_t> body);
std::vector<std::uint16_t> parse_key_share_client_groups(
    std::span<const std::uint8_t> body);
std::uint16_t parse_key_share_server_group(std::span<const std::uint8_t> body);

// ---- in-place parsers: the validated list inside a body, as a span into
//      it. Each runs the checks of the parser above that wraps it, in the
//      same order; u16 lists have even length (read them with load_u16).

std::span<const std::uint8_t> supported_groups_list(
    std::span<const std::uint8_t> body);
std::span<const std::uint8_t> ec_point_formats_list(
    std::span<const std::uint8_t> body);
std::span<const std::uint8_t> supported_versions_client_list(
    std::span<const std::uint8_t> body);

/// Decodes the contents of an extensions block, (type, u16-length body)*,
/// into `out`, replacing its contents. Slot i reuses out[i]'s body buffer.
/// The bodies of slots a shorter list drops are parked in `spare`, and a
/// later, longer list takes them back for the same slots, so a hello
/// decoded over and over stops allocating once every slot has held its
/// largest body. `out` is unspecified after a throw.
void decode_extensions(ByteReader& list, std::vector<Extension>& out,
                       std::vector<std::vector<std::uint8_t>>& spare);

/// Finds the first extension of `type`; nullptr when absent.
const Extension* find_extension(std::span<const Extension> exts,
                                std::uint16_t type);
inline const Extension* find_extension(std::span<const Extension> exts,
                                       tls::core::ExtensionType type) {
  return find_extension(exts, tls::core::wire_value(type));
}

}  // namespace tls::wire
