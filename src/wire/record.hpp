// TLS record layer (TLSPlaintext) and handshake message framing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "wire/buffer.hpp"

namespace tls::wire {

enum class ContentType : std::uint8_t {
  kChangeCipherSpec = 20,
  kAlert = 21,
  kHandshake = 22,
  kApplicationData = 23,
  kHeartbeat = 24,
};

enum class HandshakeType : std::uint8_t {
  kHelloRequest = 0,
  kClientHello = 1,
  kServerHello = 2,
  kNewSessionTicket = 4,
  kCertificate = 11,
  kServerKeyExchange = 12,
  kCertificateRequest = 13,
  kServerHelloDone = 14,
  kCertificateVerify = 15,
  kClientKeyExchange = 16,
  kFinished = 20,
};

/// One plaintext record: 5-byte header + fragment.
struct Record {
  ContentType type = ContentType::kHandshake;
  std::uint16_t legacy_version = 0x0301;
  std::vector<std::uint8_t> fragment;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Parses exactly one record; throws ParseError on truncation.
  static Record parse(std::span<const std::uint8_t> data);
  /// Parses one record from the front of `data`, returning bytes consumed.
  static Record parse_prefix(std::span<const std::uint8_t> data,
                             std::size_t* consumed);
};

/// A handshake message: 1-byte type + u24 length + body.
struct HandshakeMessage {
  HandshakeType type = HandshakeType::kClientHello;
  std::vector<std::uint8_t> body;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static HandshakeMessage parse(std::span<const std::uint8_t> data);
};

/// Wraps a handshake body into record(record_version)+handshake framing.
std::vector<std::uint8_t> wrap_handshake(HandshakeType type,
                                         std::span<const std::uint8_t> body,
                                         std::uint16_t record_version);

/// Checks that `data` is exactly one record of content type `expected` and
/// returns its fragment as a span into `data` (no copy). Throws the codes
/// Record::parse throws, in the same order, then kBadValue on a type
/// mismatch.
std::span<const std::uint8_t> record_fragment_view(
    std::span<const std::uint8_t> data, ContentType expected);

/// Unwraps record + handshake framing without copying: the handshake body
/// as a span into `data`. Runs the checks of Record::parse, the handshake
/// content-type check, HandshakeMessage::parse and the handshake-type check,
/// in that order, with their error codes.
std::span<const std::uint8_t> handshake_body_view(
    std::span<const std::uint8_t> data, HandshakeType expected);

/// handshake_body_view, copied out.
std::vector<std::uint8_t> unwrap_handshake(std::span<const std::uint8_t> data,
                                           HandshakeType expected);

}  // namespace tls::wire
