#include "wire/extension_codec.hpp"

namespace tls::wire {

using tls::core::ExtensionType;

namespace {

Extension ext(ExtensionType t, ByteWriter&& w) {
  return Extension{tls::core::wire_value(t), w.take()};
}

std::vector<std::uint16_t> u16s(std::span<const std::uint8_t> raw) {
  std::vector<std::uint16_t> out(raw.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = load_u16(raw.data() + 2 * i);
  }
  return out;
}

}  // namespace

Extension make_server_name(std::string_view host) {
  ByteWriter w;
  {
    auto list = w.u16_length_scope();
    w.u8(0);  // name_type: host_name
    auto name = w.u16_length_scope();
    w.bytes({reinterpret_cast<const std::uint8_t*>(host.data()), host.size()});
  }
  return ext(ExtensionType::kServerName, std::move(w));
}

Extension make_supported_groups(std::span<const std::uint16_t> groups) {
  ByteWriter w;
  w.u16_list_u16len(groups);
  return ext(ExtensionType::kSupportedGroups, std::move(w));
}

Extension make_ec_point_formats(std::span<const std::uint8_t> formats) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(formats.size()));
  w.bytes(formats);
  return ext(ExtensionType::kEcPointFormats, std::move(w));
}

Extension make_supported_versions_client(
    std::span<const std::uint16_t> versions) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(versions.size() * 2));
  for (const auto v : versions) w.u16(v);
  return ext(ExtensionType::kSupportedVersions, std::move(w));
}

Extension make_supported_versions_server(std::uint16_t version) {
  ByteWriter w;
  w.u16(version);
  return ext(ExtensionType::kSupportedVersions, std::move(w));
}

Extension make_signature_algorithms(std::span<const std::uint16_t> schemes) {
  ByteWriter w;
  w.u16_list_u16len(schemes);
  return ext(ExtensionType::kSignatureAlgorithms, std::move(w));
}

Extension make_alpn(std::span<const std::string> protocols) {
  ByteWriter w;
  {
    auto list = w.u16_length_scope();
    for (const auto& p : protocols) {
      w.u8(static_cast<std::uint8_t>(p.size()));
      w.bytes({reinterpret_cast<const std::uint8_t*>(p.data()), p.size()});
    }
  }
  return ext(ExtensionType::kAlpn, std::move(w));
}

Extension make_heartbeat(std::uint8_t mode) {
  ByteWriter w;
  w.u8(mode);
  return ext(ExtensionType::kHeartbeat, std::move(w));
}

Extension make_session_ticket(std::span<const std::uint8_t> ticket) {
  ByteWriter w;
  w.bytes(ticket);
  return ext(ExtensionType::kSessionTicket, std::move(w));
}

Extension make_renegotiation_info(std::span<const std::uint8_t> verify_data) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(verify_data.size()));
  w.bytes(verify_data);
  return ext(ExtensionType::kRenegotiationInfo, std::move(w));
}

Extension make_encrypt_then_mac() {
  return Extension{tls::core::wire_value(ExtensionType::kEncryptThenMac), {}};
}

Extension make_extended_master_secret() {
  return Extension{
      tls::core::wire_value(ExtensionType::kExtendedMasterSecret), {}};
}

Extension make_status_request() {
  ByteWriter w;
  w.u8(1);   // ocsp
  w.u16(0);  // responder_id_list
  w.u16(0);  // request_extensions
  return ext(ExtensionType::kStatusRequest, std::move(w));
}

Extension make_sct() {
  return Extension{
      tls::core::wire_value(ExtensionType::kSignedCertificateTimestamp), {}};
}

Extension make_padding(std::size_t n) {
  return Extension{tls::core::wire_value(ExtensionType::kPadding),
                   std::vector<std::uint8_t>(n, 0)};
}

Extension make_key_share_client(std::span<const std::uint16_t> groups) {
  ByteWriter w;
  {
    auto list = w.u16_length_scope();
    for (const auto g : groups) {
      w.u16(g);
      // Stub 32-byte key material; the simulator never evaluates it.
      auto key = w.u16_length_scope();
      for (int i = 0; i < 32; ++i) w.u8(static_cast<std::uint8_t>(g + i));
    }
  }
  return ext(ExtensionType::kKeyShare, std::move(w));
}

Extension make_key_share_server(std::uint16_t group) {
  ByteWriter w;
  w.u16(group);
  {
    auto key = w.u16_length_scope();
    for (int i = 0; i < 32; ++i) w.u8(static_cast<std::uint8_t>(group + i));
  }
  return ext(ExtensionType::kKeyShare, std::move(w));
}

Extension make_psk_key_exchange_modes(std::span<const std::uint8_t> modes) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(modes.size()));
  w.bytes(modes);
  return ext(ExtensionType::kPskKeyExchangeModes, std::move(w));
}

Extension make_grease_extension(std::uint16_t grease_value) {
  return Extension{grease_value, {}};
}

std::string parse_server_name(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  ByteReader list(r.length_prefixed_u16());
  r.expect_empty("server_name");
  const auto name_type = list.u8();
  if (name_type != 0) {
    throw ParseError(ParseErrorCode::kBadValue, "server_name type != host");
  }
  const auto name = list.length_prefixed_u16();
  return std::string(reinterpret_cast<const char*>(name.data()), name.size());
}

std::vector<std::uint16_t> parse_supported_groups(
    std::span<const std::uint8_t> body) {
  return u16s(supported_groups_list(body));
}

std::vector<std::uint8_t> parse_ec_point_formats(
    std::span<const std::uint8_t> body) {
  const auto formats = ec_point_formats_list(body);
  return {formats.begin(), formats.end()};
}

std::vector<std::uint16_t> parse_supported_versions_client(
    std::span<const std::uint8_t> body) {
  return u16s(supported_versions_client_list(body));
}

std::span<const std::uint8_t> supported_groups_list(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  const auto raw = r.length_prefixed_u16();
  if (raw.size() % 2 != 0) {
    throw ParseError(ParseErrorCode::kBadLength,
                     "u16 list has odd byte count " +
                         std::to_string(raw.size()));
  }
  r.expect_empty("supported_groups");
  return raw;
}

std::span<const std::uint8_t> ec_point_formats_list(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  const auto formats = r.length_prefixed_u8();
  r.expect_empty("ec_point_formats");
  return formats;
}

std::span<const std::uint8_t> supported_versions_client_list(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  const auto raw = r.length_prefixed_u8();
  r.expect_empty("supported_versions");
  if (raw.size() % 2 != 0) {
    throw ParseError(ParseErrorCode::kBadLength, "odd supported_versions");
  }
  return raw;
}

std::uint16_t parse_supported_versions_server(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  const auto v = r.u16();
  r.expect_empty("supported_versions(server)");
  return v;
}

std::vector<std::uint16_t> parse_signature_algorithms(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  auto schemes = r.u16_list_u16len();
  r.expect_empty("signature_algorithms");
  return schemes;
}

std::vector<std::string> parse_alpn(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  ByteReader list(r.length_prefixed_u16());
  r.expect_empty("alpn");
  std::vector<std::string> out;
  while (!list.empty()) {
    const auto p = list.length_prefixed_u8();
    out.emplace_back(reinterpret_cast<const char*>(p.data()), p.size());
  }
  return out;
}

std::uint8_t parse_heartbeat(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  const auto mode = r.u8();
  r.expect_empty("heartbeat");
  if (mode != 1 && mode != 2) {
    throw ParseError(ParseErrorCode::kBadValue, "heartbeat mode");
  }
  return mode;
}

std::vector<std::uint16_t> parse_key_share_client_groups(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  ByteReader list(r.length_prefixed_u16());
  r.expect_empty("key_share");
  std::vector<std::uint16_t> groups;
  while (!list.empty()) {
    groups.push_back(list.u16());
    list.length_prefixed_u16();  // skip key material
  }
  return groups;
}

std::uint16_t parse_key_share_server_group(
    std::span<const std::uint8_t> body) {
  ByteReader r(body);
  const auto group = r.u16();
  r.length_prefixed_u16();
  r.expect_empty("key_share(server)");
  return group;
}

void decode_extensions(ByteReader& list, std::vector<Extension>& out,
                       std::vector<std::vector<std::uint8_t>>& spare) {
  std::size_t n = 0;
  while (!list.empty()) {
    const auto type = list.u16();
    const auto body = list.length_prefixed_u16();
    if (n == out.size()) {
      out.emplace_back();
      if (!spare.empty()) {
        out.back().body = std::move(spare.back());
        spare.pop_back();
      }
    }
    Extension& e = out[n++];
    e.type = type;
    e.body.assign(body.begin(), body.end());
  }
  // Park the dropped slots' bodies last slot first, so the first dropped
  // slot's buffer is on top when the list grows back.
  for (std::size_t i = out.size(); i > n; --i) {
    spare.push_back(std::move(out[i - 1].body));
  }
  out.resize(n);
}

const Extension* find_extension(std::span<const Extension> exts,
                                std::uint16_t type) {
  for (const auto& e : exts) {
    if (e.type == type) return &e;
  }
  return nullptr;
}

}  // namespace tls::wire
