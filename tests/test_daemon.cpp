// Live-ingestion daemon tests (DESIGN.md §16): wire-protocol codec units,
// credit/backpressure state machines, and real-socket end-to-end lanes —
// byte-identical determinism against batch mode, overload shedding with
// accounting closure, graceful drain with a parseable snapshot, and
// journal resume.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clients/catalog.hpp"
#include "core/checkpoint.hpp"
#include "core/journal.hpp"
#include "core/study.hpp"
#include "daemon/capture.hpp"
#include "daemon/daemon.hpp"
#include "daemon/protocol.hpp"
#include "daemon/sensor_client.hpp"
#include "notary/monitor.hpp"
#include "notary/snapshot.hpp"
#include "population/market.hpp"
#include "population/traffic.hpp"
#include "servers/population.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/stopwatch.hpp"
#include "tlscore/fnv.hpp"
#include "wire/buffer.hpp"

namespace {

using tls::daemon::CapturePayload;
using tls::daemon::CreditClient;
using tls::daemon::CreditGate;
using tls::daemon::DaemonConfig;
using tls::daemon::DaemonCounters;
using tls::daemon::DecodeError;
using tls::daemon::Frame;
using tls::daemon::FrameDecoder;
using tls::daemon::FrameType;
using tls::daemon::NotaryDaemon;
using tls::daemon::SensorClient;

std::vector<std::uint8_t> sample_payload() {
  return {0xde, 0xad, 0xbe, 0xef, 0x01};
}

// ---------------------------------------------------------------------------
// Shard routing
// ---------------------------------------------------------------------------

// Pins the routing value on fixed bytes: per-shard arrival order decides
// the position sums, so a changed route changes the aggregates a
// multi-shard run reports.
TEST(DaemonRouting, ShardOfIsFnvOfTheClientRecordModuloShards) {
  CapturePayload capture;
  capture.month_index = 24203;
  const auto client_of_length = [](std::uint8_t n) {
    std::vector<std::uint8_t> bytes;
    for (std::uint8_t i = 0; i < n; ++i) bytes.push_back(i);
    return bytes;
  };
  // FNV-1a-64 of the bytes 0, 1, ..., n-1.
  struct Case {
    std::uint8_t length;
    std::uint64_t fnv;
    std::size_t two, three;
  };
  for (const Case c : {Case{1, 0xaf63bd4c8601b7dfULL, 1, 0},
                       Case{4, 0x4475327f98e05411ULL, 1, 2},
                       Case{6, 0xa54ac5bf0ea60ddeULL, 0, 1}}) {
    capture.client = client_of_length(c.length);
    ASSERT_EQ(tls::core::fnv1a64(capture.client), c.fnv);
    EXPECT_EQ(tls::daemon::shard_of(capture, 1), 0u);
    EXPECT_EQ(tls::daemon::shard_of(capture, 2), c.two);
    EXPECT_EQ(tls::daemon::shard_of(capture, 3), c.three);
  }
  // An empty client record (an SSLv2 tally) routes by its month.
  capture.client.clear();
  EXPECT_EQ(tls::daemon::shard_of(capture, 1), 0u);
  EXPECT_EQ(tls::daemon::shard_of(capture, 2), 1u);
  EXPECT_EQ(tls::daemon::shard_of(capture, 3), 2u);
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(DaemonProtocol, FrameRoundTripsThroughDecoder) {
  const auto payload = sample_payload();
  const auto bytes = tls::daemon::encode_frame(FrameType::kCapture, payload);
  EXPECT_EQ(bytes.size(), tls::daemon::kFrameHeaderBytes + payload.size() +
                              tls::daemon::kFrameTrailerBytes);
  FrameDecoder decoder;
  const auto frames = decoder.feed(bytes);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kCapture);
  EXPECT_EQ(frames[0].payload, payload);
  EXPECT_FALSE(decoder.poisoned());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(DaemonProtocol, DecoderReassemblesByteAtATime) {
  const auto payload = sample_payload();
  const auto bytes = tls::daemon::encode_frame(FrameType::kHello, payload);
  FrameDecoder decoder;
  std::vector<Frame> all;
  for (const auto b : bytes) {
    auto out = decoder.feed({&b, 1});
    for (auto& f : out) all.push_back(std::move(f));
  }
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].payload, payload);
}

TEST(DaemonProtocol, DecoderEmitsMultipleFramesFromOneFeed) {
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 3; ++i) {
    const auto f = tls::daemon::encode_frame(FrameType::kHello, {});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameDecoder decoder;
  EXPECT_EQ(decoder.feed(stream).size(), 3u);
}

TEST(DaemonProtocol, BadMagicPoisonsPermanently) {
  FrameDecoder decoder;
  const std::vector<std::uint8_t> junk = {0xFF, 0x00, 0x01, 0x02, 0x03,
                                          0x04, 0x05, 0x06, 0x07};
  EXPECT_TRUE(decoder.feed(junk).empty());
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_EQ(decoder.error(), DecodeError::kBadMagic);
  EXPECT_FALSE(decoder.poison_prefix().empty());
  // Even a pristine frame is refused after poison.
  const auto good = tls::daemon::encode_frame(FrameType::kHello, {});
  EXPECT_TRUE(decoder.feed(good).empty());
}

TEST(DaemonProtocol, BitFlippedChecksumPoisons) {
  auto bytes = tls::daemon::encode_frame(FrameType::kCapture, sample_payload());
  bytes.back() ^= 0x40;
  FrameDecoder decoder;
  EXPECT_TRUE(decoder.feed(bytes).empty());
  EXPECT_EQ(decoder.error(), DecodeError::kBadChecksum);
}

/// Known answers of the word-at-a-time frame checksum, computed outside
/// this code base by this Python reference of the definition in
/// daemon/protocol.hpp:
///
///   M = (1 << 64) - 1
///   def rotl(x, r): return ((x << r) | (x >> (64 - r))) & M
///   def checksum(t, payload):
///       n = len(payload); full = n - n % 8
///       h = 0xcbf29ce484222325 ^ t ^ (n << 8)
///       for i in range(0, full, 8):
///           w = int.from_bytes(payload[i:i+8], "little")
///           h = rotl(((h ^ w) * 0x100000001b3) & M, 29)
///       w = int.from_bytes(payload[full:], "little")
///       h = rotl(((h ^ w ^ ((n % 8) << 56)) * 0x100000001b3) & M, 29)
///       h ^= h >> 33; h = (h * 0xff51afd7ed558ccd) & M
///       h ^= h >> 33; h = (h * 0xc4ceb9fe1a85ec53) & M
///       return h ^ (h >> 33)
TEST(DaemonProtocol, ChecksumMatchesWordAtATimeReference) {
  struct Case {
    FrameType type;
    std::vector<std::uint8_t> payload;
    std::uint64_t want;
  };
  std::vector<std::uint8_t> counting(16);
  for (std::size_t i = 0; i < counting.size(); ++i) {
    counting[i] = static_cast<std::uint8_t>(i);
  }
  const Case cases[] = {
      // A tail only.
      {FrameType::kCapture, sample_payload(), 0x2e152fa668b8daccull},
      // Two full words and a 3-byte tail.
      {FrameType::kHello, std::vector<std::uint8_t>(19, 0x5a),
       0x4af090b32d6cb391ull},
      // No payload: the empty tail still takes a step.
      {FrameType::kCreditGrant, {}, 0x2bf929de2bdfed8full},
      // Full words and an empty tail.
      {FrameType::kCapture, counting, 0x2670df6751c22d70ull},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(tls::daemon::frame_checksum(c.type, c.payload), c.want)
        << c.payload.size() << "-byte payload";
    // The trailer carries the checksum big-endian.
    const auto bytes = tls::daemon::encode_frame(c.type, c.payload);
    std::uint64_t trailer = 0;
    for (std::size_t i = bytes.size() - tls::daemon::kFrameTrailerBytes;
         i < bytes.size(); ++i) {
      trailer = (trailer << 8) | bytes[i];
    }
    EXPECT_EQ(trailer, c.want) << c.payload.size() << "-byte payload";
  }
}

TEST(DaemonProtocol, OversizedLengthRejectedAtHeaderTime) {
  // Declared length just past the limit: poisoned as soon as the 9-byte
  // header lands, long before any payload bytes exist to buffer.
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  std::vector<std::uint8_t> header = {
      0x54, 0x4C, 0x53, 0x4E,  // magic
      0x02,                    // kCapture
      0x00, 0x00, 0x04, 0x01,  // length 1025
  };
  EXPECT_TRUE(decoder.feed(header).empty());
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_EQ(decoder.error(), DecodeError::kOversized);
  EXPECT_EQ(tls::daemon::parse_code_for(decoder.error()),
            tls::wire::ParseErrorCode::kBadLength);
}

TEST(DaemonProtocol, MaxFrameBytesBoundaryIsInclusive) {
  FrameDecoder decoder(/*max_frame_bytes=*/8);
  const std::vector<std::uint8_t> payload(8, 0xAB);
  const auto ok = tls::daemon::encode_frame(FrameType::kHello, payload);
  EXPECT_EQ(decoder.feed(ok).size(), 1u);
  const std::vector<std::uint8_t> over(9, 0xAB);
  const auto bad = tls::daemon::encode_frame(FrameType::kHello, over);
  FrameDecoder second(/*max_frame_bytes=*/8);
  EXPECT_TRUE(second.feed(bad).empty());
  EXPECT_EQ(second.error(), DecodeError::kOversized);
}

TEST(DaemonProtocol, UnknownFrameTypePoisons) {
  auto bytes = tls::daemon::encode_frame(FrameType::kHello, {});
  bytes[4] = 0x7F;  // not a FrameType
  FrameDecoder decoder;
  EXPECT_TRUE(decoder.feed(bytes).empty());
  EXPECT_EQ(decoder.error(), DecodeError::kBadType);
}

/// Views stay valid until the next append(): a poison later in the same
/// batch stops next() for good but leaves the earlier view's bytes alone.
TEST(DaemonProtocol, PoisonMidBatchStopsNextAndKeepsEarlierViews) {
  const auto payload = sample_payload();
  std::vector<std::uint8_t> batch =
      tls::daemon::encode_frame(FrameType::kCapture, payload);
  const std::vector<std::uint8_t> junk(12, 0xFF);
  batch.insert(batch.end(), junk.begin(), junk.end());
  const auto after = tls::daemon::encode_frame(FrameType::kHello, {});
  batch.insert(batch.end(), after.begin(), after.end());

  FrameDecoder decoder;
  decoder.append(batch);
  const auto first = decoder.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, FrameType::kCapture);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_EQ(decoder.error(), DecodeError::kBadMagic);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_TRUE(std::equal(first->payload.begin(), first->payload.end(),
                         payload.begin(), payload.end()));
  // Poison is permanent: neither the frame behind it nor a fresh one
  // comes out.
  EXPECT_FALSE(decoder.next().has_value());
  decoder.append(after);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(DaemonProtocol, AppendFrameMatchesEncodeFrameAndGrantsRoundTrip) {
  std::vector<std::uint8_t> out = {0xAA};
  tls::daemon::append_frame(out, FrameType::kStats, sample_payload());
  const auto whole = tls::daemon::encode_frame(FrameType::kStats,
                                               sample_payload());
  ASSERT_EQ(out.size(), 1 + whole.size());
  EXPECT_EQ(out[0], 0xAA);
  EXPECT_TRUE(std::equal(whole.begin(), whole.end(), out.begin() + 1));

  std::vector<std::uint8_t> grant;
  tls::daemon::append_credit_grant(grant, 0x01020304);
  FrameDecoder decoder;
  const auto frames = decoder.feed(grant);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kCreditGrant);
  EXPECT_EQ(tls::daemon::decode_credit_grant(frames[0].payload), 0x01020304u);
}

// ---------------------------------------------------------------------------
// Capture payload codec
// ---------------------------------------------------------------------------

TEST(DaemonProtocol, CaptureRoundTrip) {
  CapturePayload capture;
  capture.month_index = static_cast<std::uint32_t>(
      tls::core::Month(2016, 7).index());
  capture.day = tls::core::Date(2016, 7, 13);
  capture.success = true;
  capture.used_fallback = true;
  capture.client = {0x16, 0x03, 0x01, 0x00, 0x01, 0x01};
  capture.server = {0x16, 0x03, 0x03};
  capture.alert = {0x15, 0x03, 0x01};
  const auto bytes = tls::daemon::encode_capture(capture);
  const auto back = tls::daemon::decode_capture(bytes);
  EXPECT_EQ(back.month_index, capture.month_index);
  EXPECT_EQ(back.day, capture.day);
  EXPECT_EQ(back.success, capture.success);
  EXPECT_EQ(back.used_fallback, capture.used_fallback);
  EXPECT_EQ(back.sslv2, capture.sslv2);
  EXPECT_EQ(back.client, capture.client);
  EXPECT_EQ(back.server, capture.server);
  EXPECT_EQ(back.ske, capture.ske);
  EXPECT_EQ(back.alert, capture.alert);
}

TEST(DaemonProtocol, CaptureRejectsBadDateAndTrailingBytes) {
  CapturePayload capture;
  capture.day = tls::core::Date(2016, 2, 29);
  auto bytes = tls::daemon::encode_capture(capture);
  auto bad_date = bytes;
  bad_date[7] = 31;  // Feb 31 — invalid civil date
  EXPECT_THROW(tls::daemon::decode_capture(bad_date), tls::wire::ParseError);
  auto trailing = bytes;
  trailing.push_back(0x00);
  EXPECT_THROW(tls::daemon::decode_capture(trailing), tls::wire::ParseError);
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_THROW(tls::daemon::decode_capture(truncated), tls::wire::ParseError);
}

TEST(DaemonProtocol, CaptureMonthIndexIsBoundedLikeTheSnapshotCodec) {
  // The snapshot codec refuses month indexes above kMaxMonthIndex, so the
  // capture decoder refuses them too, as a bad value.
  CapturePayload capture;
  capture.day = tls::core::Date(2016, 7, 13);
  for (const std::uint32_t index :
       {tls::core::kMaxMonthIndex, tls::core::kMaxMonthIndex + 1,
        0xFFFFFFFFu}) {
    capture.month_index = index;
    const auto bytes = tls::daemon::encode_capture(capture);
    if (index <= tls::core::kMaxMonthIndex) {
      EXPECT_EQ(tls::daemon::decode_capture(bytes).month_index, index);
      continue;
    }
    try {
      (void)tls::daemon::decode_capture(bytes);
      ADD_FAILURE() << "month index " << index << " must be rejected";
    } catch (const tls::wire::ParseError& e) {
      EXPECT_EQ(e.code(), tls::wire::ParseErrorCode::kBadValue) << index;
    }
  }
  EXPECT_EQ(tls::core::kMaxMonthIndex, 36000u);
}

void expect_same_capture(const CapturePayload& got,
                         const CapturePayload& want) {
  EXPECT_EQ(got.month_index, want.month_index);
  EXPECT_EQ(got.day, want.day);
  EXPECT_EQ(got.success, want.success);
  EXPECT_EQ(got.used_fallback, want.used_fallback);
  EXPECT_EQ(got.sslv2, want.sslv2);
  EXPECT_EQ(got.client, want.client);
  EXPECT_EQ(got.server, want.server);
  EXPECT_EQ(got.ske, want.ske);
  EXPECT_EQ(got.alert, want.alert);
}

/// A payload reused across captures decodes each exactly as a fresh one:
/// fields of an earlier, longer capture never leak into a later one, and
/// a field the later capture lacks comes back empty.
TEST(DaemonProtocol, DecodeIntoReusedPayloadMatchesFreshDecode) {
  CapturePayload big;
  big.month_index = static_cast<std::uint32_t>(
      tls::core::Month(2014, 4).index());
  big.day = tls::core::Date(2014, 4, 8);
  big.success = true;
  big.used_fallback = true;
  big.client = std::vector<std::uint8_t>(300, 0x16);
  big.server = std::vector<std::uint8_t>(90, 0x02);
  big.ske = std::vector<std::uint8_t>(400, 0x0c);
  big.alert = {0x15, 0x03, 0x01, 0x00, 0x02, 0x02, 0x28};
  CapturePayload small;
  small.month_index = static_cast<std::uint32_t>(
      tls::core::Month(2017, 1).index());
  small.day = tls::core::Date(2017, 1, 2);
  small.client = {0x16, 0x03, 0x01};
  small.server = {0x16, 0x03, 0x03, 0x00};
  CapturePayload sslv2;
  sslv2.day = tls::core::Date(2013, 5, 1);
  sslv2.sslv2 = true;

  CapturePayload reused;
  for (const auto* capture : {&big, &small, &sslv2, &big, &small}) {
    const auto bytes = tls::daemon::encode_capture(*capture);
    tls::daemon::decode_capture_into(bytes, reused);
    expect_same_capture(reused, tls::daemon::decode_capture(bytes));
    expect_same_capture(reused, *capture);
  }
  // The capacity of the longer capture is kept for reuse.
  EXPECT_GE(reused.ske.capacity(), big.ske.size());
}

TEST(DaemonProtocol, ReleaseOversizedFieldsFreesOnlyLargeFields) {
  CapturePayload capture;
  capture.client.reserve(64);
  capture.client = {1, 2, 3};
  capture.server.reserve(4096);
  capture.server = {4, 5};
  capture.ske.reserve(65);
  capture.alert.reserve(1 << 20);
  tls::daemon::release_oversized_fields(capture, 64);
  EXPECT_GE(capture.client.capacity(), 64u);  // at the cap: kept
  EXPECT_EQ(capture.client, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(capture.server.capacity(), 0u);
  EXPECT_TRUE(capture.server.empty());
  EXPECT_EQ(capture.ske.capacity(), 0u);
  EXPECT_EQ(capture.alert.capacity(), 0u);
}

// ---------------------------------------------------------------------------
// Credit state machines
// ---------------------------------------------------------------------------

TEST(DaemonCredits, GateEnforcesWindowAndBatchesGrants) {
  CreditGate gate(2);
  EXPECT_TRUE(gate.consume());
  EXPECT_TRUE(gate.consume());
  EXPECT_FALSE(gate.consume());  // window exhausted
  EXPECT_EQ(gate.outstanding(), 2u);
  gate.complete();
  gate.complete();
  EXPECT_EQ(gate.outstanding(), 0u);
  EXPECT_EQ(gate.take_grant(), 2u);
  EXPECT_EQ(gate.take_grant(), 0u);  // drained
  EXPECT_TRUE(gate.consume());       // window restored
}

TEST(DaemonCredits, SpuriousCompleteClampsInsteadOfWrapping) {
  CreditGate gate(1);
  gate.complete();  // no matching consume
  EXPECT_EQ(gate.outstanding(), 0u);
  EXPECT_EQ(gate.take_grant(), 0u);
}

TEST(DaemonCredits, ClientSaturatesOnHostileGrants) {
  CreditClient client;
  EXPECT_FALSE(client.try_send());
  client.on_grant(UINT32_MAX);
  client.on_grant(UINT32_MAX);  // would wrap without saturation
  EXPECT_EQ(client.available(), UINT32_MAX);
  EXPECT_TRUE(client.try_send());
  EXPECT_EQ(client.available(), UINT32_MAX - 1);
}

// ---------------------------------------------------------------------------
// End-to-end over real sockets
// ---------------------------------------------------------------------------

/// Connects `client` to a daemon on this host.
bool connect_to(SensorClient& client, const NotaryDaemon& daemon) {
  return client.connect("127.0.0.1", daemon.port());
}

/// Polls until `count` credits have accumulated; false on a dead peer or
/// when they do not arrive within the query deadline.
bool await_credits(SensorClient& client, std::uint32_t count) {
  const auto deadline_us = tls::telemetry::now_us() +
                           std::uint64_t{tls::daemon::kQueryDeadlineMs} * 1000;
  while (client.credits().available() < count) {
    if (tls::telemetry::now_us() >= deadline_us || !client.poll(100)) {
      return false;
    }
  }
  return true;
}

/// Sends one capture, spending a credit (waits for one if needed).
bool send_capture(SensorClient& client, const CapturePayload& capture) {
  if (!await_credits(client, 1)) return false;
  EXPECT_TRUE(client.credits().try_send());
  const auto payload = tls::daemon::encode_capture(capture);
  return client.send(tls::daemon::encode_frame(FrameType::kCapture, payload));
}

struct TrafficFixture {
  TrafficFixture()
      : catalog(tls::clients::Catalog::core_only()),
        database(tls::study::LongitudinalStudy::build_database(catalog)),
        servers(tls::servers::ServerPopulation::standard()),
        market(tls::population::MarketModel::standard(catalog)) {}

  std::vector<CapturePayload> make_captures(std::size_t count,
                                            std::uint64_t seed) {
    tls::population::TrafficGenerator gen(market, servers, seed);
    std::vector<CapturePayload> captures;
    captures.reserve(count);
    gen.generate_month(tls::core::Month(2016, 3), count,
                       [&](const tls::population::ConnectionEvent& event) {
                         captures.push_back(
                             tls::daemon::capture_from_event(event));
                       });
    return captures;
  }

  tls::clients::Catalog catalog;
  tls::fp::FingerprintDatabase database;
  tls::servers::ServerPopulation servers;
  tls::population::MarketModel market;
};

TrafficFixture& fixture() {
  static TrafficFixture f;
  return f;
}

/// Any single flipped bit in a real capture frame's type byte, payload or
/// trailer poisons the decoder. Payload and trailer flips are checksum
/// failures, and so is a type flip that names another frame type; one
/// that leaves the FrameType range is refused first, as kBadType.
TEST(DaemonProtocol, EverySingleBitFlipOfACaptureFrameIsCaught) {
  const auto capture = fixture().make_captures(1, 0xF11B).front();
  const auto frame = tls::daemon::encode_frame(
      FrameType::kCapture, tls::daemon::encode_capture(capture));
  ASSERT_GT(frame.size(), 100u);
  const std::size_t type_at = 4;
  for (std::size_t at = type_at; at < frame.size(); ++at) {
    if (at > type_at && at < tls::daemon::kFrameHeaderBytes) continue;
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = frame;
      bad[at] ^= static_cast<std::uint8_t>(1u << bit);
      const bool known_type =
          bad[type_at] >= static_cast<std::uint8_t>(FrameType::kHello) &&
          bad[type_at] <= static_cast<std::uint8_t>(FrameType::kFlight);
      FrameDecoder decoder;
      EXPECT_TRUE(decoder.feed(bad).empty());
      EXPECT_EQ(decoder.error(), known_type ? DecodeError::kBadChecksum
                                            : DecodeError::kBadType)
          << "byte " << at << " bit " << bit;
    }
  }
}

/// Daemon-ingested aggregates must be byte-identical to batch-mode
/// observe_wire over the same capture stream: one connection, one shard,
/// so the observe call order matches exactly (the absorb-order-invariant
/// guarantee is exercised by the overload lane below).
TEST(DaemonEndToEnd, DeterministicAgainstBatchMode) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(400, 0xD5EED);

  DaemonConfig config;
  config.shards = 1;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();

  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  for (const auto& capture : captures) {
    ASSERT_TRUE(send_capture(client, capture));
  }
  // Round-trip a stats query until every capture is ingested (queries and
  // captures share the ordered connection, so one reply after the last
  // send means everything before it was admitted; poll for ingestion).
  for (int i = 0; i < 200; ++i) {
    if (daemon.counters().ingested == captures.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(daemon.counters().ingested, captures.size());

  // Reference: the identical stream through batch-mode observe_wire on a
  // monitor configured exactly like the daemon's shard, absorbed the same
  // way the daemon aggregates.
  tls::notary::PassiveMonitor reference(&fix.database);
  for (const auto& c : captures) {
    const auto month = tls::core::Month(
        static_cast<int>(c.month_index / 12),
        static_cast<int>(c.month_index % 12) + 1);
    if (c.sslv2) {
      reference.observe_sslv2(month);
    } else {
      reference.observe_wire(month, c.day, c.client, c.server, c.ske,
                             c.success, c.used_fallback, c.alert);
    }
  }
  tls::notary::PassiveMonitor expected(&fix.database);
  expected.absorb(reference);

  const auto daemon_state =
      tls::notary::encode_monitor_state(daemon.aggregate_monitor());
  const auto batch_state = tls::notary::encode_monitor_state(expected);
  EXPECT_EQ(daemon_state, batch_state);

  daemon.request_stop();
  daemon.join();
  const auto c = daemon.counters();
  EXPECT_EQ(c.offered, captures.size());
  EXPECT_EQ(c.offered, c.ingested + c.shed + c.malformed);
}

/// Overload: tiny queues + an artificial observe cost + a sender that
/// ignores nothing (it respects credits, so overload manifests as shed
/// at the daemon, drops at the client — never unbounded queues). The
/// ledger must close exactly.
TEST(DaemonEndToEnd, OverloadShedsWithExactClosure) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(300, 0x10AD);

  DaemonConfig config;
  config.shards = 1;
  config.shard_queue_depth = 4;
  config.credit_window = 64;
  config.observe_delay_us_for_test = 2000;  // ~500/s capacity
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();

  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  std::size_t sent = 0;
  for (const auto& capture : captures) {
    if (!send_capture(client, capture)) break;
    ++sent;
  }
  EXPECT_EQ(sent, captures.size());
  // Captures still in the socket buffer at stop time would be honestly
  // lost to the connection teardown; wait until the daemon has read (and
  // accounted) everything we sent before draining.
  for (int i = 0; i < 500; ++i) {
    if (daemon.counters().offered == sent) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  daemon.request_stop();
  daemon.join();
  const auto c = daemon.counters();
  EXPECT_EQ(c.offered, sent);
  EXPECT_GT(c.shed, 0u) << "queue depth 4 at 2ms/observe must shed";
  EXPECT_GT(c.ingested, 0u);
  EXPECT_EQ(c.malformed, 0u);
  EXPECT_EQ(c.offered, c.ingested + c.shed + c.malformed);
}

TEST(DaemonEndToEnd, MalformedAndGarbageAreBookedNotFatal) {
  auto& fix = fixture();
  DaemonConfig config;
  config.shards = 1;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();

  {
    // A checksum-valid frame whose capture payload is garbage: counted as
    // malformed, connection survives.
    SensorClient client;
    ASSERT_TRUE(connect_to(client, daemon));
    ASSERT_TRUE(await_credits(client, 1));
    const std::vector<std::uint8_t> junk = {0x01, 0x02, 0x03};
    ASSERT_TRUE(client.send(
        tls::daemon::encode_frame(FrameType::kCapture, junk)));
    EXPECT_TRUE(client.query(FrameType::kQueryStats))
        << "connection must survive a malformed capture";
  }
  {
    // Raw garbage bytes: the decoder poisons and the daemon books a frame
    // error and closes — the process itself shrugs. Keep the connection
    // open until the error is booked: closing with the unread credit
    // grant pending would RST the socket and discard the garbage.
    SensorClient client;
    ASSERT_TRUE(connect_to(client, daemon));
    const std::vector<std::uint8_t> garbage(64, 0xEE);
    client.send(garbage);
    for (int i = 0; i < 200; ++i) {
      if (daemon.counters().frame_errors > 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  daemon.request_stop();
  daemon.join();
  const auto c = daemon.counters();
  EXPECT_EQ(c.malformed, 1u);
  EXPECT_GE(c.frame_errors, 1u);
  EXPECT_EQ(c.offered, c.ingested + c.shed + c.malformed);
}

/// A capture whose month index the snapshot codec would refuse is booked
/// as malformed and never observed, so the aggregate (and every epoch and
/// SNAPSHOT.bin written from it) still decodes.
TEST(DaemonEndToEnd, OutOfRangeMonthIndexIsMalformedAndSnapshotsDecode) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(3, 0x40000);
  DaemonConfig config;
  config.shards = 1;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();
  {
    SensorClient client;
    ASSERT_TRUE(connect_to(client, daemon));
    ASSERT_TRUE(send_capture(client, captures[0]));
    auto hostile = captures[1];
    hostile.month_index = 40000;
    ASSERT_TRUE(send_capture(client, hostile));
    ASSERT_TRUE(send_capture(client, captures[2]));
    ASSERT_TRUE(client.query(FrameType::kQueryStats));
  }
  daemon.request_stop();
  daemon.join();
  const auto c = daemon.counters();
  EXPECT_EQ(c.malformed, 1u);
  EXPECT_EQ(c.ingested, 2u);
  EXPECT_EQ(c.offered, c.ingested + c.shed + c.malformed);
  const auto aggregate = daemon.aggregate_monitor();
  EXPECT_EQ(aggregate.total_connections(), 2u);
  const auto state = tls::notary::encode_monitor_state(aggregate);
  std::vector<std::uint8_t> again;
  ASSERT_NO_THROW(again = tls::notary::encode_monitor_state(
                      tls::notary::decode_monitor_state(state, &fix.database)));
  EXPECT_EQ(again, state);
}

TEST(DaemonEndToEnd, StatsAndMetricsQueriesServeLiveAggregates) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(50, 0x57A7);
  DaemonConfig config;
  config.shards = 2;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();

  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  for (const auto& capture : captures) {
    ASSERT_TRUE(send_capture(client, capture));
  }
  const auto stats = client.query(FrameType::kQueryStats);
  ASSERT_TRUE(stats);
  EXPECT_EQ(tls::daemon::decode_stats(*stats).at("offered"), 50u) << *stats;
  const auto prom = client.query(FrameType::kQueryMetrics);
  ASSERT_TRUE(prom);
  EXPECT_NE(prom->find("tls_repro_daemon_offered_total"), std::string::npos);
  // The exposition must satisfy the repo's own Prometheus linter.
  const auto problems = tls::telemetry::lint_prometheus(*prom);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());

  daemon.request_stop();
  daemon.join();
}

/// The stats query's ingest quantiles read log-linear buckets: a pinned
/// 2 ms observe cost must report a p50 near 2 ms, not the next decade.
TEST(DaemonEndToEnd, IngestQuantilesResolveBelowADecade) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(20, 0x9050);
  DaemonConfig config;
  config.shards = 1;
  config.observe_delay_us_for_test = 2000;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();

  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  // One capture in flight at a time, so no sample includes queueing
  // behind another capture's observe delay.
  for (std::size_t i = 0; i < captures.size(); ++i) {
    ASSERT_TRUE(send_capture(client, captures[i]));
    for (int t = 0; t < 1000 && daemon.counters().ingested <= i; ++t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(daemon.counters().ingested, i + 1);
  }
  const auto reply = client.query(FrameType::kQueryStats);
  ASSERT_TRUE(reply);
  const std::string& stats = *reply;
  const auto at = stats.find("ingest_p50_us=");
  ASSERT_NE(at, std::string::npos) << stats;
  const auto p50 = std::stoull(stats.substr(at + 14));
  // The quantile is a bucket upper bound, so the ceiling is the first
  // ladder bound at or above 3000 us, read from the ladder itself: a
  // literal 3000 would demand the bucket below it (2560 us today), barely
  // above the 2000-us delay, while this still rules out the next decade.
  const auto& ladder = tls::telemetry::wide_latency_buckets_us();
  const auto ceiling = std::lower_bound(ladder.begin(), ladder.end(), 3000u);
  ASSERT_NE(ceiling, ladder.end());
  EXPECT_GE(p50, 2000u) << stats;
  EXPECT_LE(p50, *ceiling) << stats;

  daemon.request_stop();
  daemon.join();
}

TEST(DaemonEndToEnd, DrainWritesSnapshotAndResumeRestoresAggregate) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(120, 0xCAFE);
  const auto dir =
      std::filesystem::temp_directory_path() / "tls_daemon_resume_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::vector<std::uint8_t> first_state;
  {
    DaemonConfig config;
    config.shards = 2;
    config.database = &fix.database;
    config.checkpoint_dir = dir.string();
    NotaryDaemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.last_error();
    SensorClient client;
    ASSERT_TRUE(connect_to(client, daemon));
    for (const auto& capture : captures) {
      ASSERT_TRUE(send_capture(client, capture));
    }
    ASSERT_TRUE(client.query(FrameType::kQueryStats));
    daemon.request_stop();
    daemon.join();
    first_state = tls::notary::encode_monitor_state(daemon.aggregate_monitor());
    EXPECT_EQ(daemon.counters().ingested, captures.size());
    // A healthy disk drops no journal frame.
    EXPECT_NE(daemon.stats_text().find("journal_dropped_frames=0\n"),
              std::string::npos);
  }
  // The drain must have produced both snapshot artifacts.
  EXPECT_TRUE(std::filesystem::exists(dir / "SNAPSHOT.bin"));
  {
    std::ifstream txt(dir / "SNAPSHOT.txt");
    std::string content((std::istreambuf_iterator<char>(txt)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("clean_drain=1"), std::string::npos);
    EXPECT_NE(content.find("ingested=120"), std::string::npos);
  }
  {
    // Resume: the baseline restored from the journal must reproduce the
    // pre-restart aggregate bit-exactly before any new capture arrives.
    DaemonConfig config;
    config.shards = 2;
    config.database = &fix.database;
    config.checkpoint_dir = dir.string();
    config.resume = true;
    NotaryDaemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.last_error();
    EXPECT_EQ(daemon.resumed_epoch(), 1u);
    const auto resumed_state =
        tls::notary::encode_monitor_state(daemon.aggregate_monitor());
    EXPECT_EQ(resumed_state, first_state);
    daemon.request_stop();
    daemon.join();
  }
  std::filesystem::remove_all(dir);
}

/// A version-1 monitor snapshot of `mon`: version 2's layout followed by
/// the 14 observe-cache counter words that version 2 dropped.
std::vector<std::uint8_t> version1_payload(
    const tls::notary::PassiveMonitor& mon) {
  const auto v2 = tls::notary::encode_monitor_state(mon);
  tls::wire::ByteWriter w;
  w.u32(1);
  w.bytes(std::span<const std::uint8_t>(v2).subspan(4));
  for (int i = 0; i < 14; ++i) w.u64(0);
  return w.take();
}

/// A checksum-valid newest epoch whose payload no longer decodes must not
/// cost the older epochs: resume falls back to the newest decodable one,
/// counts the skip, and numbers its next epoch above the bad slot so a
/// later resume does not pick the bad slot again.
TEST(DaemonEndToEnd, ResumeFallsBackPastAnUndecodableNewestEpoch) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(120, 0xE90C);
  const auto dir = std::filesystem::temp_directory_path() /
                   "tls_daemon_resume_fallback_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  DaemonConfig config;
  config.shards = 2;
  config.database = &fix.database;
  config.checkpoint_dir = dir.string();

  std::vector<std::uint8_t> epoch1_state;
  {
    NotaryDaemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.last_error();
    SensorClient client;
    ASSERT_TRUE(connect_to(client, daemon));
    for (const auto& capture : captures) {
      ASSERT_TRUE(send_capture(client, capture));
    }
    ASSERT_TRUE(client.query(FrameType::kQueryStats));
    daemon.request_stop();
    daemon.join();  // the drain journals epoch 1
    ASSERT_EQ(daemon.counters().ingested, captures.size());
    epoch1_state =
        tls::notary::encode_monitor_state(daemon.aggregate_monitor());
  }
  {
    // Epoch 2: a well-formed frame in a fresh segment, but its payload is
    // an (empty) version-1 monitor snapshot.
    tls::study::PosixJournalBackend backend(dir.string());
    const auto segments = backend.list_segments();
    ASSERT_FALSE(segments.empty());
    tls::study::GroupCommitWriter::Config wcfg;
    wcfg.group_frames = 1;
    wcfg.options_digest = tls::daemon::kDaemonOptionsDigest;
    wcfg.first_segment_id =
        *std::max_element(segments.begin(), segments.end()) + 1;
    tls::study::GroupCommitWriter writer(&backend, wcfg, nullptr);
    tls::study::FrameHeader header;
    header.kind = tls::study::FrameKind::kPassiveShard;
    header.slot = 2;
    writer.enqueue(tls::study::encode_frame(
        tls::daemon::kDaemonOptionsDigest, header,
        version1_payload(tls::notary::PassiveMonitor(&fix.database))));
    writer.stop();
    ASSERT_EQ(writer.stats().frames, 1u);
  }
  config.resume = true;
  {
    NotaryDaemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.last_error();
    EXPECT_EQ(daemon.resumed_epoch(), 1u);
    EXPECT_NE(daemon.stats_text().find("resume_decode_failures=1\n"),
              std::string::npos);
    EXPECT_EQ(tls::notary::encode_monitor_state(daemon.aggregate_monitor()),
              epoch1_state);
    daemon.request_stop();
    daemon.join();  // the drain journals epoch 3, above the bad slot
  }
  {
    NotaryDaemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.last_error();
    EXPECT_EQ(daemon.resumed_epoch(), 3u);
    EXPECT_NE(daemon.stats_text().find("resume_decode_failures=0\n"),
              std::string::npos);
    EXPECT_EQ(tls::notary::encode_monitor_state(daemon.aggregate_monitor()),
              epoch1_state);
    daemon.request_stop();
    daemon.join();
  }
  std::filesystem::remove_all(dir);
}

/// A daemon journal written before the daemon stamped a MANIFEST resumes
/// at epoch 0 once; its epochs must not come back on the next resume. The
/// old epochs use the same digest and (kind, month, slot) keys as the new
/// ones, so if they stayed on disk, old epoch 1 would shadow new epoch 1
/// and old epoch 3 would be restored over everything since the upgrade.
TEST(DaemonEndToEnd, OldLayoutEpochsNeverReturnAfterTheFirstResume) {
  auto& fix = fixture();
  const auto dir =
      std::filesystem::temp_directory_path() / "tls_daemon_old_layout_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  DaemonConfig config;
  config.shards = 1;
  config.database = &fix.database;

  // The old build's payload: a real aggregate, distinct from what the
  // upgraded daemon ingests below.
  std::vector<std::uint8_t> old_state;
  {
    NotaryDaemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.last_error();
    SensorClient client;
    ASSERT_TRUE(connect_to(client, daemon));
    for (const auto& capture : fix.make_captures(60, 0x01D)) {
      ASSERT_TRUE(send_capture(client, capture));
    }
    ASSERT_TRUE(client.query(FrameType::kQueryStats));
    daemon.request_stop();
    daemon.join();
    old_state = tls::notary::encode_monitor_state(daemon.aggregate_monitor());
  }
  {
    // Epochs 1..3 in segments written straight to the store, no MANIFEST.
    tls::study::PosixJournalBackend backend(dir.string());
    tls::study::GroupCommitWriter::Config wcfg;
    wcfg.group_frames = 1;
    wcfg.options_digest = tls::daemon::kDaemonOptionsDigest;
    tls::study::GroupCommitWriter writer(&backend, wcfg, nullptr);
    for (std::uint32_t epoch = 1; epoch <= 3; ++epoch) {
      tls::study::FrameHeader header;
      header.kind = tls::study::FrameKind::kPassiveShard;
      header.slot = epoch;
      writer.enqueue(tls::study::encode_frame(
          tls::daemon::kDaemonOptionsDigest, header, old_state));
    }
    writer.stop();
    ASSERT_EQ(writer.stats().frames, 3u);
  }
  ASSERT_FALSE(std::filesystem::exists(dir / "MANIFEST"));

  config.checkpoint_dir = dir.string();
  config.resume = true;
  std::vector<std::uint8_t> new_state;
  {
    NotaryDaemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.last_error();
    EXPECT_EQ(daemon.resumed_epoch(), 0u);
    EXPECT_EQ(daemon.aggregate_monitor().total_connections(), 0u);
    SensorClient client;
    ASSERT_TRUE(connect_to(client, daemon));
    for (const auto& capture : fix.make_captures(20, 0x2E3)) {
      ASSERT_TRUE(send_capture(client, capture));
    }
    ASSERT_TRUE(client.query(FrameType::kQueryStats));
    daemon.request_stop();
    daemon.join();  // the drain journals epoch 1
    new_state = tls::notary::encode_monitor_state(daemon.aggregate_monitor());
  }
  ASSERT_NE(new_state, old_state);
  {
    NotaryDaemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.last_error();
    EXPECT_EQ(daemon.resumed_epoch(), 1u);
    EXPECT_EQ(tls::notary::encode_monitor_state(daemon.aggregate_monitor()),
              new_state);
    daemon.request_stop();
    daemon.join();
  }
  std::filesystem::remove_all(dir);
}

/// Study and daemon journals share one segment format but never replay
/// each other's frames: each kind's MANIFEST marks the other's frames as
/// mismatched. A daemon resumed on a study checkpoint starts at epoch 0;
/// a study resumed on a daemon's journal recomputes every task and
/// exports the same bytes as an unjournaled run.
TEST(DaemonEndToEnd, StudyAndDaemonJournalsStayApart) {
  auto& fix = fixture();
  const auto dir =
      std::filesystem::temp_directory_path() / "tls_daemon_study_apart_test";
  const auto out_plain = dir.string() + "_plain";
  const auto out_resumed = dir.string() + "_resumed";
  for (const auto& d : {dir.string(), out_plain, out_resumed}) {
    std::filesystem::remove_all(d);
  }

  tls::study::StudyOptions opts;
  opts.connections_per_month = 300;
  opts.full_catalog = false;
  opts.window = {tls::core::Month(2015, 1), tls::core::Month(2015, 4)};
  auto plain = opts;
  tls::study::LongitudinalStudy reference(plain);
  const auto ref_files = reference.export_figures(out_plain);
  ASSERT_EQ(ref_files.size(), 11u);
  opts.checkpoint_dir = dir.string();
  std::uint64_t study_frames = 0;
  {
    tls::study::LongitudinalStudy study(opts);
    (void)study.monitor();
    study_frames = study.recovery().tasks_recomputed;  // one frame per task
    ASSERT_GT(study_frames, 0u);
  }

  DaemonConfig config;
  config.shards = 1;
  config.database = &fix.database;
  config.checkpoint_dir = dir.string();
  config.resume = true;
  {
    NotaryDaemon daemon(config);
    ASSERT_TRUE(daemon.start()) << daemon.last_error();
    EXPECT_EQ(daemon.resumed_epoch(), 0u);
    EXPECT_EQ(daemon.aggregate_monitor().total_connections(), 0u);
    SensorClient client;
    ASSERT_TRUE(connect_to(client, daemon));
    for (const auto& capture : fix.make_captures(20, 0xA9A7)) {
      ASSERT_TRUE(send_capture(client, capture));
    }
    ASSERT_TRUE(client.query(FrameType::kQueryStats));
    daemon.request_stop();
    daemon.join();  // the drain journals epoch 1 under the daemon's manifest
  }

  opts.resume = true;
  tls::study::LongitudinalStudy resumed(opts);
  std::vector<std::string> files;
  ASSERT_NO_THROW(files = resumed.export_figures(out_resumed));
  ASSERT_EQ(files.size(), ref_files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::ifstream a(files[i], std::ios::binary);
    std::ifstream b(ref_files[i], std::ios::binary);
    const std::string got((std::istreambuf_iterator<char>(a)),
                          std::istreambuf_iterator<char>());
    const std::string want((std::istreambuf_iterator<char>(b)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(got, want) << ref_files[i];
  }
  const auto report = resumed.recovery();
  EXPECT_FALSE(report.resumed);
  EXPECT_EQ(report.frames_replayed, 0u);
  // Only the daemon's epoch: the daemon's resume deleted the study's
  // segments after rejecting their frames.
  EXPECT_EQ(report.frames_mismatched, 1u);
  EXPECT_EQ(report.tasks_skipped, 0u);
  for (const auto& d : {dir.string(), out_plain, out_resumed}) {
    std::filesystem::remove_all(d);
  }
}

TEST(DaemonEndToEnd, CreditViolationShedsAndCloses) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(8, 0xBAD);
  DaemonConfig config;
  config.shards = 1;
  config.credit_window = 2;
  config.observe_delay_us_for_test = 50000;  // keep credits outstanding
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();

  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  ASSERT_TRUE(await_credits(client, 2));
  // Send 4 captures against a window of 2 without waiting for grants: the
  // two over-window sends are credit violations.
  for (std::size_t i = 0; i < 4; ++i) {
    const auto payload = tls::daemon::encode_capture(captures[i]);
    if (!client.send(
            tls::daemon::encode_frame(FrameType::kCapture, payload))) {
      break;
    }
  }
  for (int i = 0; i < 200; ++i) {
    if (daemon.counters().credit_violations > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  daemon.request_stop();
  daemon.join();
  const auto c = daemon.counters();
  EXPECT_GE(c.credit_violations, 1u);
  EXPECT_EQ(c.offered, c.ingested + c.shed + c.malformed);
}

// ---------------------------------------------------------------------------
// Observability plane (DESIGN.md §17)
// ---------------------------------------------------------------------------

/// The always-on plane reports: after a short run the flight rings have
/// recorded events and the gauge ticker has sampled a non-empty queue.
/// The ticker's gauges are registered by start(), so only a sampled
/// value shows that it ran: a 2-ms observe keeps the queue non-empty for
/// about 0.4 s, two ticker periods.
TEST(DaemonObservability, MergedMetricsCarryFlightAndTickerGauges) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(200, 0xF1E7);

  DaemonConfig config;
  config.shards = 1;
  config.database = &fix.database;
  config.observe_delay_us_for_test = 2000;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();
  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  for (const auto& capture : captures) {
    ASSERT_TRUE(send_capture(client, capture));
  }
  for (int i = 0; i < 500 && daemon.counters().ingested < captures.size();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(daemon.counters().ingested, captures.size());
  const auto reg = daemon.merged_metrics();
  EXPECT_NE(reg.find("tls_repro_daemon_credits_outstanding"), nullptr);
  const auto* peak =
      reg.find("tls_repro_daemon_queue_depth_peak", "shard=\"0\"");
  ASSERT_NE(peak, nullptr);
  EXPECT_GT(peak->gauge.value, 0u) << "the gauge ticker never sampled";
  const auto* flight = reg.find("tls_repro_daemon_flight_events");
  ASSERT_NE(flight, nullptr);
  EXPECT_GT(flight->gauge.value, 0u);
  daemon.request_stop();
  daemon.join();
}

/// The daemon reports its shard monitors' notary counters in the one
/// study vocabulary: every ingested capture took the byte path or was an
/// SSLv2 hello, and the fingerprint memo saw the byte path's hellos.
TEST(DaemonObservability, MergedMetricsCarryNotaryCounters) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(300, 0xC0DE);

  DaemonConfig config;
  config.shards = 2;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();
  {
    SensorClient client;
    ASSERT_TRUE(connect_to(client, daemon));
    for (const auto& capture : captures) {
      ASSERT_TRUE(send_capture(client, capture));
    }
    for (int i = 0; i < 500; ++i) {
      if (daemon.counters().ingested == captures.size()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  daemon.request_stop();
  daemon.join();
  const auto c = daemon.counters();
  ASSERT_EQ(c.ingested, captures.size());

  const auto reg = daemon.merged_metrics();
  const auto value = [&](const char* name) -> std::uint64_t {
    const auto* m = reg.find(name);
    EXPECT_NE(m, nullptr) << name;
    return m == nullptr ? 0 : m->counter.value;
  };
  EXPECT_EQ(value("tls_repro_notary_byte_path_total") +
                value("tls_repro_notary_sslv2_total"),
            c.ingested);
  EXPECT_EQ(value("tls_repro_notary_sslv2_total"), c.sslv2);
  EXPECT_EQ(value("tls_repro_notary_fast_path_total"), 0u);
  EXPECT_GT(value("tls_repro_notary_fp_memo_lookups_total"), 0u);
  EXPECT_LE(value("tls_repro_notary_fp_memo_hits_total"),
            value("tls_repro_notary_fp_memo_lookups_total"));
}

/// Every daemon thread reports its CPU time: the event loop and each
/// shard worker, live while they run and frozen at their exit.
TEST(DaemonObservability, MergedMetricsCarryThreadCpuTime) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(400, 0xC9U);

  DaemonConfig config;
  config.shards = 2;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();
  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  for (const auto& capture : captures) {
    ASSERT_TRUE(send_capture(client, capture));
  }
  for (int i = 0; i < 500 && daemon.counters().ingested < captures.size();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(daemon.counters().ingested, captures.size());

  const char* kName = "tls_repro_daemon_thread_cpu_us_total";
  const std::string labels[] = {"thread=\"event\"",
                                "thread=\"shard\",shard=\"0\"",
                                "thread=\"shard\",shard=\"1\""};
  const auto live = daemon.merged_metrics();
  std::uint64_t live_us[3] = {};
  for (int t = 0; t < 3; ++t) {
    const auto* m = live.find(kName, labels[t]);
    ASSERT_NE(m, nullptr) << labels[t];
    EXPECT_TRUE(m->timing);
    live_us[t] = m->counter.value;
  }
  EXPECT_GT(live_us[0], 0u) << "the event loop decoded 400 captures";
  EXPECT_GT(live_us[1] + live_us[2], 0u) << "the workers observed them";

  daemon.request_stop();
  daemon.join();
  const auto after = daemon.merged_metrics();
  for (int t = 0; t < 3; ++t) {
    const auto* m = after.find(kName, labels[t]);
    ASSERT_NE(m, nullptr) << labels[t];
    EXPECT_GE(m->counter.value, live_us[t]) << labels[t];
  }
}

// ---------------------------------------------------------------------------
// Shard handoff: batch pops and empty-to-non-empty wakes
// ---------------------------------------------------------------------------

/// The worker pops its whole queue as one batch, and the queue depth bounds
/// the queue plus that batch: with a slow observe and a credit window far
/// above the depth, admitted-but-unobserved captures never exceed it.
TEST(DaemonHandoff, AdmissionBoundCountsTheWorkersBatch) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(200, 0xB0B);
  constexpr std::size_t kDepth = 4;
  DaemonConfig config;
  config.shards = 1;
  config.shard_queue_depth = kDepth;
  config.credit_window = 32;
  config.observe_delay_us_for_test = 500;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();
  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));

  // Admitted-but-unobserved is admitted - ingested. counters() loads
  // `ingested` before `admitted`, so take `admitted` from one read and
  // `ingested` from a later one: their difference never exceeds the true
  // count at the later read.
  std::atomic<bool> sending{true};
  std::uint64_t worst = 0;
  std::uint64_t samples = 0;
  std::thread sampler([&] {
    while (sending.load(std::memory_order_acquire)) {
      const std::uint64_t admitted = daemon.counters().admitted;
      const std::uint64_t ingested = daemon.counters().ingested;
      if (admitted > ingested) worst = std::max(worst, admitted - ingested);
      ++samples;
    }
  });
  // Keep the queue full until the worker has been through many batches.
  constexpr std::uint64_t kObserved = 40;
  std::size_t sent = 0;
  bool send_failed = false;
  while (daemon.counters().ingested < kObserved && sent < 100'000) {
    if (!send_capture(client, captures[sent % captures.size()])) {
      send_failed = true;
      break;
    }
    ++sent;
  }
  for (int i = 0; i < 500 && daemon.counters().offered < sent; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  sending.store(false, std::memory_order_release);
  sampler.join();
  daemon.request_stop();
  daemon.join();

  EXPECT_FALSE(send_failed);
  EXPECT_GT(samples, 0u);
  EXPECT_GE(worst, 1u);
  EXPECT_LE(worst, kDepth) << "the worker's batch escaped the bound";
  const auto c = daemon.counters();
  EXPECT_EQ(c.offered, sent);
  EXPECT_GT(c.shed, 0u) << "a 32-credit window over depth 4 must shed";
  EXPECT_EQ(c.malformed, 0u);
  EXPECT_EQ(c.offered, c.ingested + c.shed);
}

/// One capture at a time empties both handoffs every round, so each capture
/// crosses both wake edges: queue empty -> non-empty (worker notify) and
/// completions empty -> non-empty (wake pipe). A lost wake would leave the
/// credit to the event loop's 50-ms poll timeout, or strand it for good.
TEST(DaemonHandoff, SequentialCapturesAreGrantedWithoutLostWakeups) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(1000, 0x1057);
  DaemonConfig config;
  config.shards = 2;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();
  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  ASSERT_TRUE(await_credits(client, config.credit_window));

  std::uint64_t slowest_us = 0;
  for (std::size_t i = 0; i < captures.size(); ++i) {
    const std::uint64_t sent_us = tls::telemetry::now_us();
    ASSERT_TRUE(send_capture(client, captures[i]));
    ASSERT_TRUE(await_credits(client, config.credit_window))
        << "capture " << i << " was never granted back";
    slowest_us = std::max(slowest_us, tls::telemetry::now_us() - sent_us);
  }
  RecordProperty("slowest_grant_us", std::to_string(slowest_us));
  EXPECT_LT(slowest_us, 25'000u)
      << "a grant waited out most of the loop's 50-ms poll timeout";
  EXPECT_EQ(daemon.counters().ingested, captures.size());
  daemon.request_stop();
  daemon.join();
}

/// A stop with captures still queued behind a slow observe: the workers
/// observe the whole queue before they exit, so join() returns with every
/// admitted capture ingested and the snapshot records a clean drain.
TEST(DaemonHandoff, StopWithQueuedCapturesDrainsTheQueue) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(32, 0xD4A1);
  const auto dir =
      std::filesystem::temp_directory_path() / "tls_daemon_queued_drain";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  DaemonConfig config;
  config.shards = 2;
  config.credit_window = 32;
  config.shard_queue_depth = 32;
  config.observe_delay_us_for_test = 20'000;
  config.database = &fix.database;
  config.checkpoint_dir = dir.string();
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();
  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  for (const auto& capture : captures) {
    ASSERT_TRUE(send_capture(client, capture));
  }
  for (int i = 0; i < 500 && daemon.counters().offered < captures.size();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto before = daemon.counters();
  daemon.request_stop();
  daemon.join();
  const auto c = daemon.counters();
  // 32 captures at 20 ms each take at least 320 ms on two shards, so the
  // stop found most of them still queued.
  EXPECT_GT(before.admitted, before.ingested);
  EXPECT_EQ(c.offered, captures.size());
  EXPECT_EQ(c.ingested, c.admitted);
  EXPECT_EQ(c.offered, c.ingested + c.shed + c.malformed);
  std::ifstream txt(dir / "SNAPSHOT.txt");
  const std::string content((std::istreambuf_iterator<char>(txt)),
                            std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("clean_drain=1\n"), std::string::npos);
  EXPECT_NE(content.find("ingested=" + std::to_string(c.admitted) + "\n"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

/// A long batch behind slow observes hands its completions back as it
/// goes: a capture's `complete` stage (observe to the event loop's drain)
/// stays near the time budget instead of waiting for the whole batch. At
/// 300 us per observe, a 63-job batch handed back only at its end holds
/// its first completion for about 19 ms.
TEST(DaemonHandoff, CompletionsReturnWithinABudgetNotABatch) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(64, 0xB4D6);
  DaemonConfig config;
  config.shards = 1;
  config.credit_window = 64;
  config.observe_delay_us_for_test = 300;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();
  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  ASSERT_TRUE(await_credits(client, config.credit_window));
  for (const auto& capture : captures) {
    ASSERT_TRUE(send_capture(client, capture));
  }
  // Every credit back means every completion was drained; the stop then
  // lets the drain that granted the last one finish its telemetry.
  ASSERT_TRUE(await_credits(client, config.credit_window));
  daemon.request_stop();
  daemon.join();

  // One shard, so its histogram is the merged one.
  const auto reg = daemon.merged_metrics();
  const auto* stage = reg.find("tls_repro_daemon_stage_us",
                               "shard=\"0\",stage=\"complete\"");
  ASSERT_NE(stage, nullptr);
  const auto& complete = stage->histogram;
  ASSERT_EQ(complete.count, captures.size());
  RecordProperty("complete_p99_us", std::to_string(complete.quantile(0.99)));
  EXPECT_LE(complete.quantile(0.99), 5'000u)
      << "completions waited for the end of their batch";
}

/// The loop-iteration and worker-batch counters bound the batching: at
/// least one of each, and never more batches than captures.
TEST(DaemonHandoff, LoopAndBatchCountersBoundTheCaptures) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(300, 0xBA7C);
  DaemonConfig config;
  config.shards = 2;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();
  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  for (const auto& capture : captures) {
    ASSERT_TRUE(send_capture(client, capture));
  }
  for (int i = 0; i < 500 && daemon.counters().ingested < captures.size();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(daemon.counters().ingested, captures.size());

  const auto reg = daemon.merged_metrics();
  const auto* iterations = reg.find("tls_repro_daemon_loop_iterations_total");
  ASSERT_NE(iterations, nullptr);
  EXPECT_TRUE(iterations->timing);
  EXPECT_GE(iterations->counter.value, 1u);
  std::uint64_t batches = 0;
  for (int i = 0; i < 2; ++i) {
    const auto* m = reg.find("tls_repro_daemon_shard_batches_total",
                             "shard=\"" + std::to_string(i) + "\"");
    ASSERT_NE(m, nullptr) << "shard " << i;
    EXPECT_TRUE(m->timing);
    batches += m->counter.value;
  }
  EXPECT_GE(batches, 1u);
  EXPECT_LE(batches, captures.size());
  daemon.request_stop();
  daemon.join();
}

/// A shard count past the flight recorder's ring ceiling is refused before
/// start() builds anything: no socket, no lane, no thread.
TEST(DaemonObservability, StartRejectsMoreShardsThanFlightRings) {
  DaemonConfig config;
  config.shards = tls::daemon::kMaxShards + 1;
  NotaryDaemon daemon(config);
  EXPECT_FALSE(daemon.start());
  EXPECT_NE(daemon.last_error().find("shards"), std::string::npos)
      << daemon.last_error();
  EXPECT_FALSE(daemon.running());
  EXPECT_EQ(daemon.port(), 0);
  EXPECT_EQ(tls::daemon::kMaxShards + 1, tls::telemetry::kFlightMaxRings);
}


/// Stats snapshots served under concurrent load must be monotonic between
/// polls AND internally closure-consistent at every single poll, both the
/// kStats reply and a counters() read on this thread. The ledger is read in
/// order (ingested, then the outcomes, then offered), so no read may show a
/// capture counted ingested but not yet offered, or ingested but not yet
/// admitted.
TEST(DaemonObservability, StatsSnapshotsAreMonotonicAndClosureConsistent) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(400, 0x5E9);

  DaemonConfig config;
  config.shards = 2;
  config.observe_delay_us_for_test = 100;  // keep ingestion mid-flight
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();

  std::thread sender([&] {
    SensorClient client;
    if (!connect_to(client, daemon)) return;
    for (const auto& capture : captures) {
      if (!send_capture(client, capture)) return;
    }
  });

  // Violations are recorded, not asserted, while the sender runs: a failed
  // ASSERT would return with the sender still joinable (std::terminate).
  std::string first_violation;
  const auto check = [&](bool ok, const std::string& what,
                         const std::string& body) {
    if (!ok && first_violation.empty()) {
      first_violation = what + " in:\n" + body;
    }
  };
  const auto field = [&](const std::string& body, const char* key) {
    const auto pos = body.find(std::string(key) + "=");
    check(pos != std::string::npos, std::string(key) + " missing", body);
    if (pos == std::string::npos) return 0ULL;
    return std::strtoull(body.c_str() + pos + std::strlen(key) + 1, nullptr,
                         10);
  };

  SensorClient poller;
  const bool poller_connected = connect_to(poller, daemon);
  bool queries_ok = true;
  std::uint64_t prev_offered = 0, prev_ingested = 0, prev_shed = 0;
  std::uint64_t prev_malformed = 0;
  DaemonCounters prev_live;
  int polls = 0;
  // Poll while the sender is racing; every snapshot must be consistent.
  while (poller_connected && daemon.counters().ingested < captures.size() &&
         polls < 2000) {
    const auto reply = poller.query(FrameType::kQueryStats);
    queries_ok = reply.has_value();
    if (!queries_ok) break;
    const std::string& body = *reply;
    ++polls;
    const auto offered = field(body, "offered");
    const auto admitted = field(body, "admitted");
    const auto ingested = field(body, "ingested");
    const auto shed = field(body, "shed");
    const auto malformed = field(body, "malformed");
    // Closure: nothing is ever counted resolved without being offered.
    check(offered >= ingested + shed + malformed,
          "offered < ingested + shed + malformed", body);
    check(admitted >= ingested, "admitted < ingested", body);
    check(offered >= admitted + shed + malformed,
          "offered < admitted + shed + malformed", body);
    // Monotonic between polls.
    check(offered >= prev_offered, "offered went back", body);
    check(ingested >= prev_ingested, "ingested went back", body);
    check(shed >= prev_shed, "shed went back", body);
    check(malformed >= prev_malformed, "malformed went back", body);
    // The same rules for a direct read on this (non-event) thread.
    const DaemonCounters live = daemon.counters();
    const std::string text =
        "counters(): offered=" + std::to_string(live.offered) +
        " admitted=" + std::to_string(live.admitted) +
        " ingested=" + std::to_string(live.ingested) +
        " shed=" + std::to_string(live.shed) +
        " malformed=" + std::to_string(live.malformed) + '\n';
    check(live.offered >= live.ingested + live.shed + live.malformed,
          "offered < ingested + shed + malformed", text);
    check(live.admitted >= live.ingested, "admitted < ingested", text);
    check(live.offered >= live.admitted + live.shed + live.malformed,
          "offered < admitted + shed + malformed", text);
    check(live.offered >= prev_live.offered, "offered went back", text);
    check(live.ingested >= prev_live.ingested, "ingested went back", text);
    check(live.shed >= prev_live.shed, "shed went back", text);
    check(live.malformed >= prev_live.malformed, "malformed went back", text);
    if (!first_violation.empty()) break;
    prev_offered = offered;
    prev_ingested = ingested;
    prev_shed = shed;
    prev_malformed = malformed;
    prev_live = live;
  }
  sender.join();
  EXPECT_TRUE(poller_connected);
  EXPECT_TRUE(queries_ok);
  EXPECT_TRUE(first_violation.empty()) << first_violation;
  EXPECT_GT(polls, 0);
  daemon.request_stop();
  daemon.join();
  const auto c = daemon.counters();
  EXPECT_EQ(c.offered, c.ingested + c.shed + c.malformed);
}

/// kQueryTrace serves the stage-latency waterfall: per-stage percentile
/// lines with real counts plus slowest-frame exemplars carrying per-stage
/// attribution.
TEST(DaemonObservability, QueryTraceServesStageWaterfall) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(120, 0x7ACE);

  DaemonConfig config;
  config.shards = 1;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();

  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  for (const auto& capture : captures) {
    ASSERT_TRUE(send_capture(client, capture));
  }
  for (int i = 0; i < 500; ++i) {
    if (daemon.counters().ingested == captures.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(daemon.counters().ingested, captures.size());

  const auto reply = client.query(FrameType::kQueryTrace);
  ASSERT_TRUE(reply);
  const std::string& body = *reply;
  for (const char* stage :
       {"decode", "enqueue", "queue", "observe", "complete", "grant",
        "total"}) {
    EXPECT_NE(body.find(std::string("stage ") + stage), std::string::npos)
        << "missing stage " << stage << " in:\n" << body;
  }
  // Every ingested frame was attributed.
  const auto total_pos = body.find("stage total count=");
  ASSERT_NE(total_pos, std::string::npos) << body;
  EXPECT_EQ(std::strtoull(body.c_str() + total_pos +
                              std::strlen("stage total count="),
                          nullptr, 10),
            captures.size());
  EXPECT_NE(body.find("exemplar rank="), std::string::npos) << body;
  EXPECT_NE(body.find("total_us="), std::string::npos) << body;

  // The Chrome-trace export is valid JSON carrying the same exemplars.
  const auto chrome = daemon.trace_chrome();
  EXPECT_TRUE(tls::telemetry::json_syntax_valid(chrome)) << chrome;

  daemon.request_stop();
  daemon.join();
}

/// kQueryFlight serves a live FLIGHT.bin image that decodes cleanly and
/// contains the lifecycle events this very exchange produced.
TEST(DaemonObservability, QueryFlightServesDecodableDump) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(50, 0xF117);

  DaemonConfig config;
  config.shards = 2;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();

  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  for (const auto& capture : captures) {
    ASSERT_TRUE(send_capture(client, capture));
  }
  for (int i = 0; i < 500; ++i) {
    if (daemon.counters().ingested == captures.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const auto reply = client.query(FrameType::kQueryFlight);
  ASSERT_TRUE(reply);
  const std::string& body = *reply;
  ASSERT_FALSE(body.empty());
  const auto dump = tls::telemetry::decode_flight(
      {reinterpret_cast<const std::uint8_t*>(body.data()), body.size()});
  ASSERT_TRUE(dump.ok);
  EXPECT_TRUE(dump.checksum_ok);
  EXPECT_EQ(dump.crash_signo, 0u);
  ASSERT_EQ(dump.totals.size(), 1u + 2u);  // event loop + one lane per shard
  EXPECT_EQ(dump.ring_capacity, 4096u);

  std::uint64_t accepts = 0, admits = 0, ingests = 0, dumps = 0;
  for (const auto& e : dump.events) {
    using tls::telemetry::FlightEventKind;
    switch (static_cast<FlightEventKind>(e.kind)) {
      case FlightEventKind::kConnAccept: ++accepts; break;
      case FlightEventKind::kAdmit: ++admits; break;
      case FlightEventKind::kIngest: ++ingests; break;
      case FlightEventKind::kFlightDump: ++dumps; break;
      default: break;
    }
  }
  EXPECT_GE(accepts, 1u);
  EXPECT_EQ(admits, captures.size());
  EXPECT_EQ(ingests, captures.size());
  EXPECT_GE(dumps, 1u);  // the query itself books a dump event

  const auto text = tls::telemetry::render_flight(
      {reinterpret_cast<const std::uint8_t*>(body.data()), body.size()});
  EXPECT_NE(text.find("checksum=ok"), std::string::npos);

  daemon.request_stop();
  daemon.join();
}

// ---------------------------------------------------------------------------
// Sensor client
// ---------------------------------------------------------------------------

/// decode_stats is the inverse of stats_text(): every DaemonCounters field
/// comes back under its key with the value counters() reports.
TEST(DaemonEndToEnd, DecodeStatsHoldsEveryCounterField) {
  auto& fix = fixture();
  DaemonConfig config;
  config.shards = 1;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();
  {
    SensorClient client;
    ASSERT_TRUE(connect_to(client, daemon));
    for (const auto& capture : fix.make_captures(30, 0x57A75)) {
      ASSERT_TRUE(send_capture(client, capture));
    }
    ASSERT_TRUE(await_credits(client, 1));
    ASSERT_TRUE(client.credits().try_send());
    const std::vector<std::uint8_t> junk = {0x01, 0x02, 0x03};
    ASSERT_TRUE(
        client.send(tls::daemon::encode_frame(FrameType::kCapture, junk)));
    ASSERT_TRUE(client.query(FrameType::kQueryStats));
  }
  daemon.request_stop();
  daemon.join();
  const DaemonCounters c = daemon.counters();
  ASSERT_EQ(c.offered, 31u);
  ASSERT_EQ(c.malformed, 1u);
  const auto stats = tls::daemon::decode_stats(daemon.stats_text());
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"offered", c.offered},
      {"admitted", c.admitted},
      {"ingested", c.ingested},
      {"shed", c.shed},
      {"malformed", c.malformed},
      {"credit_violations", c.credit_violations},
      {"frame_errors", c.frame_errors},
      {"idle_timeouts", c.idle_timeouts},
      {"connections_accepted", c.connections_accepted},
      {"connections_closed", c.connections_closed},
      {"sslv2", c.sslv2},
      {"checkpoint_epochs", c.checkpoint_epochs},
  };
  for (const auto& [key, value] : fields) {
    ASSERT_EQ(stats.count(key), 1u) << key;
    EXPECT_EQ(stats.at(key), value) << key;
  }
  // Lines without '=' and values that are not a whole u64 are skipped.
  const auto odd = tls::daemon::decode_stats("a=1\nno equals\nb=x\nc=2");
  EXPECT_EQ(odd, (std::map<std::string, std::uint64_t>{{"a", 1}, {"c", 2}}));
}

/// A loopback listener that accepts connections and never writes to them
/// unless told to.
class SilentPeer {
 public:
  SilentPeer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
        ::listen(listen_fd_, 4) == 0 &&
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
            0) {
      port_ = ntohs(addr.sin_port);
    }
  }
  ~SilentPeer() {
    for (const int fd : accepted_) ::close(fd);
    ::close(listen_fd_);
  }
  SilentPeer(const SilentPeer&) = delete;
  SilentPeer& operator=(const SilentPeer&) = delete;

  /// 0 when the listener could not be set up.
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Accepts one pending connection; returns its fd.
  int accept_one() {
    accepted_.push_back(::accept(listen_fd_, nullptr, nullptr));
    return accepted_.back();
  }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<int> accepted_;
};

/// A failed connect() leaves no socket open: not for a bad host literal
/// (the address is rejected before a socket exists) and not for a refused
/// port, whether or not the client was connected before.
TEST(DaemonSensorClient, FailedConnectLeavesNoSocket) {
  std::uint16_t closed_port = 0;
  {
    SilentPeer peer;
    ASSERT_NE(peer.port(), 0u);
    closed_port = peer.port();
    SensorClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", peer.port()));
    EXPECT_TRUE(client.connected());
    EXPECT_FALSE(client.connect("not-an-ip", peer.port()));
    EXPECT_FALSE(client.connected());
  }
  SensorClient client;
  EXPECT_FALSE(client.connect("256.0.0.1", 4464));
  EXPECT_FALSE(client.connected());
  // The peer's listener is closed now, so its port refuses.
  EXPECT_FALSE(client.connect("127.0.0.1", closed_port));
  EXPECT_FALSE(client.connected());
  EXPECT_FALSE(client.query(FrameType::kQueryStats));
}

/// A peer that accepts and never answers costs a query its deadline, not
/// forever; a peer that answers with garbage fails the query at once.
TEST(DaemonSensorClient, QueryToSilentPeerTimesOut) {
  SilentPeer peer;
  ASSERT_NE(peer.port(), 0u);
  SensorClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", peer.port()));
  peer.accept_one();
  const auto start_us = tls::telemetry::now_us();
  EXPECT_FALSE(client.query(FrameType::kQueryStats));
  const auto waited_ms = (tls::telemetry::now_us() - start_us) / 1000;
  EXPECT_GE(waited_ms, std::uint64_t{tls::daemon::kQueryDeadlineMs} - 1);
  EXPECT_LE(waited_ms, std::uint64_t{tls::daemon::kQueryDeadlineMs} + 1000);
  EXPECT_FALSE(client.connected()) << "a timed-out query gives up the stream";

  ASSERT_TRUE(client.connect("127.0.0.1", peer.port()));
  const int fd = peer.accept_one();
  const std::vector<std::uint8_t> garbage(32, 0xEE);
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));
  const auto garbage_start_us = tls::telemetry::now_us();
  EXPECT_FALSE(client.query(FrameType::kQueryStats));
  EXPECT_LT(tls::telemetry::now_us() - garbage_start_us, 1'000'000u)
      << "a poisoned decoder must fail the query without waiting it out";
  // Only query frames have a reply.
  EXPECT_EQ(tls::daemon::reply_for(FrameType::kCapture), std::nullopt);
  EXPECT_FALSE(client.query(FrameType::kCapture));
}

/// A graceful close right after the last send still delivers every
/// capture: the half-close waits for the daemon's EOF instead of resetting
/// the connection over unread credit grants.
TEST(DaemonSensorClient, GracefulCloseDeliversEverySentCapture) {
  auto& fix = fixture();
  const auto captures = fix.make_captures(200, 0x6ACE);
  DaemonConfig config;
  config.shards = 1;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();
  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  for (const auto& capture : captures) {
    ASSERT_TRUE(send_capture(client, capture));
  }
  const auto start_us = tls::telemetry::now_us();
  client.close_gracefully();
  EXPECT_LT(tls::telemetry::now_us() - start_us, 1'000'000u)
      << "the daemon closes at once on the half-close";
  EXPECT_FALSE(client.connected());
  for (int i = 0; i < 500; ++i) {
    if (daemon.counters().connections_closed == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  daemon.request_stop();
  daemon.join();
  const auto c = daemon.counters();
  EXPECT_EQ(c.connections_closed, 1u);
  EXPECT_EQ(c.offered, captures.size());
  EXPECT_EQ(c.ingested, captures.size());
}

/// All four queries get their own reply type on one connection.
TEST(DaemonSensorClient, EveryQueryGetsItsReply) {
  auto& fix = fixture();
  EXPECT_EQ(tls::daemon::reply_for(FrameType::kQueryStats), FrameType::kStats);
  EXPECT_EQ(tls::daemon::reply_for(FrameType::kQueryMetrics),
            FrameType::kMetrics);
  EXPECT_EQ(tls::daemon::reply_for(FrameType::kQueryTrace), FrameType::kTrace);
  EXPECT_EQ(tls::daemon::reply_for(FrameType::kQueryFlight),
            FrameType::kFlight);
  DaemonConfig config;
  config.shards = 1;
  config.database = &fix.database;
  NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();
  SensorClient client;
  ASSERT_TRUE(connect_to(client, daemon));
  for (const auto& capture : fix.make_captures(10, 0x4E91)) {
    ASSERT_TRUE(send_capture(client, capture));
  }
  const auto stats = client.query(FrameType::kQueryStats);
  ASSERT_TRUE(stats);
  EXPECT_EQ(tls::daemon::decode_stats(*stats).at("offered"), 10u);
  const auto metrics = client.query(FrameType::kQueryMetrics);
  ASSERT_TRUE(metrics);
  EXPECT_NE(metrics->find("tls_repro_daemon_offered_total"), std::string::npos);
  const auto trace = client.query(FrameType::kQueryTrace);
  ASSERT_TRUE(trace);
  EXPECT_NE(trace->find("stage total"), std::string::npos) << *trace;
  const auto flight = client.query(FrameType::kQueryFlight);
  ASSERT_TRUE(flight);
  EXPECT_TRUE(tls::telemetry::decode_flight(
                  {reinterpret_cast<const std::uint8_t*>(flight->data()),
                   flight->size()})
                  .ok);
  EXPECT_TRUE(client.connected());
  daemon.request_stop();
  daemon.join();
}

}  // namespace
