#include "wire/server_key_exchange.hpp"

namespace tls::wire {

namespace {

/// The one SKE decoder: overwrites every field of `out`, keeping vector
/// capacity. `out` is unspecified after a throw.
void decode_body(std::span<const std::uint8_t> body,
                 EcdheServerKeyExchange& out) {
  ByteReader r(body);
  const auto curve_type = r.u8();
  if (curve_type != 3) {
    throw ParseError(ParseErrorCode::kUnsupported,
                     "only named_curve ECDHE is supported");
  }
  out.named_curve = r.u16();
  const auto point = r.length_prefixed_u8();
  out.public_point.assign(point.begin(), point.end());
  r.u16();  // signature algorithm
  const auto sig = r.length_prefixed_u16();
  out.signature.assign(sig.begin(), sig.end());
  r.expect_empty("server key exchange");
}

}  // namespace

std::vector<std::uint8_t> EcdheServerKeyExchange::serialize_body() const {
  ByteWriter w;
  w.u8(3);  // curve_type: named_curve
  w.u16(named_curve);
  w.u8(static_cast<std::uint8_t>(public_point.size()));
  w.bytes(public_point);
  w.u16(0x0401);  // signature algorithm: rsa_pkcs1_sha256 (stub)
  w.u16(static_cast<std::uint16_t>(signature.size()));
  w.bytes(signature);
  return w.take();
}

EcdheServerKeyExchange EcdheServerKeyExchange::parse_body(
    std::span<const std::uint8_t> body) {
  EcdheServerKeyExchange ske;
  decode_body(body, ske);
  return ske;
}

std::vector<std::uint8_t> EcdheServerKeyExchange::serialize_record(
    std::uint16_t record_version) const {
  return wrap_handshake(HandshakeType::kServerKeyExchange, serialize_body(),
                        record_version);
}

void EcdheServerKeyExchange::serialize_record_into(
    std::uint16_t record_version, std::vector<std::uint8_t>& out) const {
  ByteWriter w(std::move(out));
  w.u8(static_cast<std::uint8_t>(ContentType::kHandshake));
  w.u16(record_version);
  {
    auto record = w.u16_length_scope();
    w.u8(static_cast<std::uint8_t>(HandshakeType::kServerKeyExchange));
    {
      auto handshake = w.u24_length_scope();
      w.u8(3);  // curve_type: named_curve
      w.u16(named_curve);
      w.u8(static_cast<std::uint8_t>(public_point.size()));
      w.bytes(public_point);
      w.u16(0x0401);  // signature algorithm: rsa_pkcs1_sha256 (stub)
      w.u16(static_cast<std::uint16_t>(signature.size()));
      w.bytes(signature);
    }
  }
  out = w.take();
}

EcdheServerKeyExchange EcdheServerKeyExchange::parse_record(
    std::span<const std::uint8_t> data) {
  EcdheServerKeyExchange ske;
  parse_record_into(data, ske);
  return ske;
}

void EcdheServerKeyExchange::parse_record_into(
    std::span<const std::uint8_t> data, EcdheServerKeyExchange& out) {
  decode_body(handshake_body_view(data, HandshakeType::kServerKeyExchange),
              out);
}

EcdheServerKeyExchange EcdheServerKeyExchange::stub(std::uint16_t curve) {
  EcdheServerKeyExchange ske;
  ske.named_curve = curve;
  ske.public_point.assign(33, 0x04);
  ske.signature.assign(64, 0x5a);
  return ske;
}

}  // namespace tls::wire
