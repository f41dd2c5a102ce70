#include "wire/heartbeat.hpp"

#include <algorithm>

namespace tls::wire {

std::vector<std::uint8_t> HeartbeatMessage::serialize_record(
    std::uint16_t record_version) const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(claimed_payload_length);
  w.bytes(payload);
  w.bytes(padding);
  Record rec;
  rec.type = ContentType::kHeartbeat;
  rec.legacy_version = record_version;
  rec.fragment = w.take();
  return rec.serialize();
}

HeartbeatMessage HeartbeatMessage::parse_record(
    std::span<const std::uint8_t> data) {
  ByteReader r(record_fragment_view(data, ContentType::kHeartbeat));
  HeartbeatMessage m;
  const auto type = r.u8();
  if (type != 1 && type != 2) {
    throw ParseError(ParseErrorCode::kBadValue, "heartbeat message type");
  }
  m.type = static_cast<HeartbeatMessageType>(type);
  m.claimed_payload_length = r.u16();
  // The payload/padding boundary is ambiguous when the length lies; take
  // the RFC reading: payload is min(claimed, what's actually there).
  const std::size_t actual =
      std::min<std::size_t>(m.claimed_payload_length, r.remaining());
  const auto payload = r.bytes(actual);
  m.payload.assign(payload.begin(), payload.end());
  const auto padding = r.bytes(r.remaining());
  m.padding.assign(padding.begin(), padding.end());
  return m;
}

HeartbeatResponder::HeartbeatResponder(bool vulnerable,
                                       std::vector<std::uint8_t> memory)
    : vulnerable_(vulnerable), memory_(std::move(memory)) {}

std::optional<std::vector<std::uint8_t>> HeartbeatResponder::respond(
    std::span<const std::uint8_t> request_record) const {
  HeartbeatMessage request;
  try {
    request = HeartbeatMessage::parse_record(request_record);
  } catch (const ParseError&) {
    return std::nullopt;
  }
  if (request.type != HeartbeatMessageType::kRequest) return std::nullopt;

  HeartbeatMessage response;
  response.type = HeartbeatMessageType::kResponse;

  if (vulnerable_) {
    // CVE-2014-0160: trust claimed_payload_length; copy that many bytes
    // starting from the request's payload, continuing into adjacent
    // (synthetic) process memory.
    response.claimed_payload_length = request.claimed_payload_length;
    response.payload = request.payload;
    std::size_t leak = request.claimed_payload_length - request.payload.size();
    for (std::size_t i = 0; i < leak; ++i) {
      response.payload.push_back(memory_[i % std::max<std::size_t>(
                                              memory_.size(), 1)]);
    }
  } else {
    // RFC 6520 §4: "If the payload_length of a received HeartbeatMessage is
    // too large, the received HeartbeatMessage MUST be discarded silently."
    if (!request.well_formed()) return std::nullopt;
    response.claimed_payload_length = request.claimed_payload_length;
    response.payload = request.payload;
  }
  return response.serialize_record(0x0303);
}

HeartbeatMessage make_heartbleed_probe(std::uint16_t overread) {
  HeartbeatMessage probe;
  probe.type = HeartbeatMessageType::kRequest;
  probe.payload = {'h', 'b'};
  probe.claimed_payload_length =
      static_cast<std::uint16_t>(probe.payload.size() + overread);
  return probe;
}

bool probe_indicates_vulnerable(
    const std::optional<std::vector<std::uint8_t>>& response,
    std::uint16_t overread) {
  if (!response.has_value()) return false;
  HeartbeatMessage m;
  try {
    m = HeartbeatMessage::parse_record(*response);
  } catch (const ParseError&) {
    return false;
  }
  return m.type == HeartbeatMessageType::kResponse &&
         m.payload.size() >= 2 + overread;
}

}  // namespace tls::wire
