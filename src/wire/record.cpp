#include "wire/record.hpp"

namespace tls::wire {

namespace {

struct RecordView {
  ContentType type;
  std::uint16_t legacy_version;
  std::span<const std::uint8_t> fragment;
};

/// Reads one record from the front of `r`: the checks every record parser
/// runs, with the fragment left in place.
RecordView read_record(ByteReader& r) {
  const auto type = r.u8();
  switch (type) {
    case 20: case 21: case 22: case 23: case 24:
      break;
    default:
      throw ParseError(ParseErrorCode::kBadValue,
                       "unknown content type " + std::to_string(type));
  }
  const auto legacy_version = r.u16();
  return {static_cast<ContentType>(type), legacy_version,
          r.length_prefixed_u16()};
}

void expect_whole_record(std::size_t consumed, std::size_t size) {
  if (consumed != size) {
    throw ParseError(ParseErrorCode::kTrailingBytes,
                     "record followed by " + std::to_string(size - consumed) +
                         " bytes");
  }
}

struct HandshakeView {
  HandshakeType type;
  std::span<const std::uint8_t> body;
};

/// Reads a record fragment holding exactly one handshake message.
HandshakeView read_handshake(std::span<const std::uint8_t> fragment) {
  ByteReader r(fragment);
  const auto type = static_cast<HandshakeType>(r.u8());
  const auto body = r.length_prefixed_u24();
  r.expect_empty("handshake message");
  return {type, body};
}

}  // namespace

std::vector<std::uint8_t> Record::serialize() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(legacy_version);
  if (fragment.size() > 0x4000 + 2048) {
    throw ParseError(ParseErrorCode::kBadLength, "record fragment too large");
  }
  w.u16(static_cast<std::uint16_t>(fragment.size()));
  w.bytes(fragment);
  return w.take();
}

Record Record::parse(std::span<const std::uint8_t> data) {
  std::size_t consumed = 0;
  Record r = parse_prefix(data, &consumed);
  expect_whole_record(consumed, data.size());
  return r;
}

Record Record::parse_prefix(std::span<const std::uint8_t> data,
                            std::size_t* consumed) {
  ByteReader r(data);
  const RecordView view = read_record(r);
  Record rec;
  rec.type = view.type;
  rec.legacy_version = view.legacy_version;
  rec.fragment.assign(view.fragment.begin(), view.fragment.end());
  if (consumed != nullptr) *consumed = r.position();
  return rec;
}

std::vector<std::uint8_t> HandshakeMessage::serialize() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u24(static_cast<std::uint32_t>(body.size()));
  w.bytes(body);
  return w.take();
}

HandshakeMessage HandshakeMessage::parse(std::span<const std::uint8_t> data) {
  const HandshakeView view = read_handshake(data);
  HandshakeMessage m;
  m.type = view.type;
  m.body.assign(view.body.begin(), view.body.end());
  return m;
}

std::vector<std::uint8_t> wrap_handshake(HandshakeType type,
                                         std::span<const std::uint8_t> body,
                                         std::uint16_t record_version) {
  HandshakeMessage m;
  m.type = type;
  m.body.assign(body.begin(), body.end());
  Record rec;
  rec.type = ContentType::kHandshake;
  rec.legacy_version = record_version;
  rec.fragment = m.serialize();
  return rec.serialize();
}

std::span<const std::uint8_t> record_fragment_view(
    std::span<const std::uint8_t> data, ContentType expected) {
  ByteReader r(data);
  const RecordView view = read_record(r);
  expect_whole_record(r.position(), data.size());
  if (view.type != expected) {
    throw ParseError(ParseErrorCode::kBadValue,
                     "record content type " +
                         std::to_string(static_cast<int>(view.type)) +
                         ", expected " +
                         std::to_string(static_cast<int>(expected)));
  }
  return view.fragment;
}

std::span<const std::uint8_t> handshake_body_view(
    std::span<const std::uint8_t> data, HandshakeType expected) {
  const HandshakeView view =
      read_handshake(record_fragment_view(data, ContentType::kHandshake));
  if (view.type != expected) {
    throw ParseError(ParseErrorCode::kBadValue, "unexpected handshake type");
  }
  return view.body;
}

std::vector<std::uint8_t> unwrap_handshake(std::span<const std::uint8_t> data,
                                           HandshakeType expected) {
  const auto body = handshake_body_view(data, expected);
  return {body.begin(), body.end()};
}

}  // namespace tls::wire
