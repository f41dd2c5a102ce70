#include "wire/client_hello.hpp"

#include <algorithm>

#include "tlscore/cipher_suites.hpp"

namespace tls::wire {

namespace {

/// Extension bodies dropped by a ClientHello decode, kept for the next
/// longer one on this thread (see decode_extensions).
thread_local std::vector<std::vector<std::uint8_t>> spare_bodies;

/// The one ClientHello decoder: overwrites every field of `out`, keeping
/// vector capacity. `out` is unspecified after a throw.
void decode_body(std::span<const std::uint8_t> body, ClientHello& out) {
  ByteReader r(body);
  out.legacy_version = r.u16();
  const auto rnd = r.bytes(32);
  std::copy(rnd.begin(), rnd.end(), out.random.begin());
  const auto sid = r.length_prefixed_u8();
  out.session_id.assign(sid.begin(), sid.end());
  r.u16_list_u16len(out.cipher_suites);
  if (out.cipher_suites.empty()) {
    throw ParseError(ParseErrorCode::kBadLength, "empty cipher suite list");
  }
  const auto comp = r.length_prefixed_u8();
  out.compression_methods.assign(comp.begin(), comp.end());
  if (out.compression_methods.empty()) {
    throw ParseError(ParseErrorCode::kBadLength, "empty compression list");
  }
  std::span<const std::uint8_t> block;  // absent block: no extensions
  if (!r.empty()) {
    block = r.length_prefixed_u16();
    r.expect_empty("client hello");
  }
  ByteReader exts(block);
  decode_extensions(exts, out.extensions, spare_bodies);
}

}  // namespace

bool ClientHello::has_extension(std::uint16_t type) const {
  return find_extension(extensions, type) != nullptr;
}

std::optional<std::string> ClientHello::server_name() const {
  const auto* e =
      find_extension(extensions, tls::core::ExtensionType::kServerName);
  if (e == nullptr) return std::nullopt;
  return parse_server_name(e->body);
}

std::optional<std::vector<std::uint16_t>> ClientHello::supported_groups()
    const {
  const auto* e =
      find_extension(extensions, tls::core::ExtensionType::kSupportedGroups);
  if (e == nullptr) return std::nullopt;
  return parse_supported_groups(e->body);
}

std::optional<std::vector<std::uint8_t>> ClientHello::ec_point_formats()
    const {
  const auto* e =
      find_extension(extensions, tls::core::ExtensionType::kEcPointFormats);
  if (e == nullptr) return std::nullopt;
  return parse_ec_point_formats(e->body);
}

std::optional<std::vector<std::uint16_t>> ClientHello::supported_versions()
    const {
  const auto* e =
      find_extension(extensions, tls::core::ExtensionType::kSupportedVersions);
  if (e == nullptr) return std::nullopt;
  return parse_supported_versions_client(e->body);
}

std::optional<std::uint8_t> ClientHello::heartbeat_mode() const {
  const auto* e =
      find_extension(extensions, tls::core::ExtensionType::kHeartbeat);
  if (e == nullptr) return std::nullopt;
  return parse_heartbeat(e->body);
}

std::uint16_t ClientHello::max_offered_version() const {
  const auto sv = supported_versions();
  if (!sv || sv->empty()) return legacy_version;
  std::uint16_t best = 0;
  int best_rank = -1;
  for (const auto v : *sv) {
    if (tls::core::is_grease_version(v)) continue;
    const int rank =
        tls::core::version_rank(static_cast<tls::core::ProtocolVersion>(v));
    if (rank > best_rank) {
      best_rank = rank;
      best = v;
    }
  }
  return best_rank >= 0 ? best : legacy_version;
}

void ClientHello::write_body(ByteWriter& w) const {
  w.u16(legacy_version);
  w.bytes(random);
  w.u8(static_cast<std::uint8_t>(session_id.size()));
  w.bytes(session_id);
  w.u16_list_u16len(cipher_suites);
  w.u8(static_cast<std::uint8_t>(compression_methods.size()));
  w.bytes(compression_methods);
  if (!extensions.empty()) {
    auto scope = w.u16_length_scope();
    for (const auto& e : extensions) {
      w.u16(e.type);
      w.u16(static_cast<std::uint16_t>(e.body.size()));
      w.bytes(e.body);
    }
  }
}

std::vector<std::uint8_t> ClientHello::serialize_body() const {
  ByteWriter w;
  write_body(w);
  return w.take();
}

ClientHello ClientHello::parse_body(std::span<const std::uint8_t> body) {
  ClientHello ch;
  decode_body(body, ch);
  return ch;
}

std::vector<std::uint8_t> ClientHello::serialize_record() const {
  // Record-layer version convention: SSL3/TLS1.0 hellos use their own
  // version; TLS 1.1+ clients use 0x0301 for middlebox compatibility.
  const std::uint16_t record_version =
      legacy_version <= 0x0301 ? legacy_version : 0x0301;
  return wrap_handshake(HandshakeType::kClientHello, serialize_body(),
                        record_version);
}

void ClientHello::serialize_record_into(std::vector<std::uint8_t>& out) const {
  const std::uint16_t record_version =
      legacy_version <= 0x0301 ? legacy_version : 0x0301;
  ByteWriter w(std::move(out));
  w.u8(static_cast<std::uint8_t>(ContentType::kHandshake));
  w.u16(record_version);
  {
    auto fragment = w.u16_length_scope();
    w.u8(static_cast<std::uint8_t>(HandshakeType::kClientHello));
    auto body = w.u24_length_scope();
    write_body(w);
  }
  out = w.take();
  // Parity with Record::serialize's fragment bound (record header is 5B).
  if (out.size() - 5 > 0x4000 + 2048) {
    throw ParseError(ParseErrorCode::kBadLength, "record fragment too large");
  }
}

ClientHello ClientHello::parse_record(std::span<const std::uint8_t> data) {
  ClientHello ch;
  parse_record_into(data, ch);
  return ch;
}

void ClientHello::parse_record_into(std::span<const std::uint8_t> data,
                                    ClientHello& out) {
  decode_body(handshake_body_view(data, HandshakeType::kClientHello), out);
}

}  // namespace tls::wire
