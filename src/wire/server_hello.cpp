#include "wire/server_hello.hpp"

#include <algorithm>

#include "tlscore/version.hpp"

namespace tls::wire {

namespace {

/// Extension bodies dropped by a ServerHello decode, kept for the next
/// longer one on this thread (see decode_extensions).
thread_local std::vector<std::vector<std::uint8_t>> spare_bodies;

/// The one ServerHello decoder: overwrites every field of `out`, keeping
/// vector capacity. `out` is unspecified after a throw.
void decode_body(std::span<const std::uint8_t> body, ServerHello& out) {
  ByteReader r(body);
  out.legacy_version = r.u16();
  const auto rnd = r.bytes(32);
  std::copy(rnd.begin(), rnd.end(), out.random.begin());
  const auto sid = r.length_prefixed_u8();
  out.session_id.assign(sid.begin(), sid.end());
  out.cipher_suite = r.u16();
  out.compression_method = r.u8();
  std::span<const std::uint8_t> block;  // absent block: no extensions
  if (!r.empty()) {
    block = r.length_prefixed_u16();
    r.expect_empty("server hello");
  }
  ByteReader exts(block);
  decode_extensions(exts, out.extensions, spare_bodies);
}

}  // namespace

bool ServerHello::has_extension(std::uint16_t type) const {
  return find_extension(extensions, type) != nullptr;
}

std::uint16_t ServerHello::negotiated_version() const {
  const auto* e =
      find_extension(extensions, tls::core::ExtensionType::kSupportedVersions);
  if (e != nullptr) return parse_supported_versions_server(e->body);
  return legacy_version;
}

std::optional<std::uint8_t> ServerHello::heartbeat_mode() const {
  const auto* e =
      find_extension(extensions, tls::core::ExtensionType::kHeartbeat);
  if (e == nullptr) return std::nullopt;
  return parse_heartbeat(e->body);
}

std::optional<std::uint16_t> ServerHello::key_share_group() const {
  const auto* e =
      find_extension(extensions, tls::core::ExtensionType::kKeyShare);
  if (e == nullptr) return std::nullopt;
  return parse_key_share_server_group(e->body);
}

void ServerHello::write_body(ByteWriter& w) const {
  w.u16(legacy_version);
  w.bytes(random);
  w.u8(static_cast<std::uint8_t>(session_id.size()));
  w.bytes(session_id);
  w.u16(cipher_suite);
  w.u8(compression_method);
  if (!extensions.empty()) {
    auto scope = w.u16_length_scope();
    for (const auto& e : extensions) {
      w.u16(e.type);
      w.u16(static_cast<std::uint16_t>(e.body.size()));
      w.bytes(e.body);
    }
  }
}

std::vector<std::uint8_t> ServerHello::serialize_body() const {
  ByteWriter w;
  write_body(w);
  return w.take();
}

ServerHello ServerHello::parse_body(std::span<const std::uint8_t> body) {
  ServerHello sh;
  decode_body(body, sh);
  return sh;
}

std::vector<std::uint8_t> ServerHello::serialize_record() const {
  const std::uint16_t record_version =
      legacy_version <= 0x0301 ? legacy_version : 0x0301;
  return wrap_handshake(HandshakeType::kServerHello, serialize_body(),
                        record_version);
}

void ServerHello::serialize_record_into(std::vector<std::uint8_t>& out) const {
  const std::uint16_t record_version =
      legacy_version <= 0x0301 ? legacy_version : 0x0301;
  ByteWriter w(std::move(out));
  w.u8(static_cast<std::uint8_t>(ContentType::kHandshake));
  w.u16(record_version);
  {
    auto fragment = w.u16_length_scope();
    w.u8(static_cast<std::uint8_t>(HandshakeType::kServerHello));
    auto body = w.u24_length_scope();
    write_body(w);
  }
  out = w.take();
  // Parity with Record::serialize's fragment bound (record header is 5B).
  if (out.size() - 5 > 0x4000 + 2048) {
    throw ParseError(ParseErrorCode::kBadLength, "record fragment too large");
  }
}

ServerHello ServerHello::parse_record(std::span<const std::uint8_t> data) {
  ServerHello sh;
  parse_record_into(data, sh);
  return sh;
}

void ServerHello::parse_record_into(std::span<const std::uint8_t> data,
                                    ServerHello& out) {
  decode_body(handshake_body_view(data, HandshakeType::kServerHello), out);
}

}  // namespace tls::wire
