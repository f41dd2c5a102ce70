// Robustness properties for every wire parser: arbitrary truncation or
// mutation of valid messages must either parse to *something* or throw
// ParseError — never crash, hang, or throw anything else. This is the
// contract the passive monitor relies on when fed hostile traffic.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <span>
#include <string>
#include <variant>

#include "clients/catalog.hpp"
#include "core/checkpoint.hpp"
#include "daemon/protocol.hpp"
#include "faults/injector.hpp"
#include "population/traffic.hpp"
#include "notary/snapshot.hpp"
#include "telemetry/flight.hpp"
#include "tlscore/rng.hpp"
#include "wire/alert.hpp"
#include "wire/client_hello.hpp"
#include "wire/extension_codec.hpp"
#include "wire/heartbeat.hpp"
#include "wire/record.hpp"
#include "wire/server_hello.hpp"
#include "wire/server_key_exchange.hpp"
#include "wire/sslv2.hpp"
#include "wire/transcript.hpp"

namespace {

using Bytes = std::vector<std::uint8_t>;

template <typename ParseFn>
void expect_parse_or_parse_error(const Bytes& data, ParseFn&& parse,
                                 const char* what) {
  try {
    parse(data);
  } catch (const tls::wire::ParseError&) {
    // acceptable
  } catch (const std::exception& e) {
    FAIL() << what << ": unexpected exception type: " << e.what();
  }
}

Bytes sample_client_hello_bytes() {
  const auto catalog = tls::clients::Catalog::core_only();
  const auto* cfg =
      catalog.find("Chrome")->config_at(tls::core::Date(2018, 4, 1));
  tls::core::Rng rng(55);
  return tls::clients::make_client_hello(*cfg, rng, "fuzz.test")
      .serialize_record();
}

TEST(Fuzz, ClientHelloEveryTruncation) {
  const auto bytes = sample_client_hello_bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const Bytes prefix(bytes.begin(),
                       bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    expect_parse_or_parse_error(
        prefix,
        [](const Bytes& b) { tls::wire::ClientHello::parse_record(b); },
        "truncated client hello");
  }
}

TEST(Fuzz, ClientHelloRandomMutations) {
  const auto base = sample_client_hello_bytes();
  tls::core::Rng rng(77);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes mutated = base;
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.below(mutated.size())] =
          static_cast<std::uint8_t>(rng.next());
    }
    expect_parse_or_parse_error(
        mutated,
        [](const Bytes& b) { tls::wire::ClientHello::parse_record(b); },
        "mutated client hello");
  }
}

TEST(Fuzz, ClientHelloRandomGarbage) {
  tls::core::Rng rng(88);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes garbage(rng.below(300));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    expect_parse_or_parse_error(
        garbage,
        [](const Bytes& b) { tls::wire::ClientHello::parse_record(b); },
        "garbage client hello");
  }
}

TEST(Fuzz, ServerHelloMutations) {
  tls::wire::ServerHello sh;
  sh.cipher_suite = 0xc02f;
  sh.extensions.push_back(tls::wire::make_supported_versions_server(0x7e02));
  sh.extensions.push_back(tls::wire::make_key_share_server(29));
  const auto base = sh.serialize_record();
  tls::core::Rng rng(99);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes mutated = base;
    mutated[rng.below(mutated.size())] =
        static_cast<std::uint8_t>(rng.next());
    try {
      const auto parsed = tls::wire::ServerHello::parse_record(mutated);
      // Typed accessors on a structurally-valid parse must also be safe.
      (void)parsed.negotiated_version();
      (void)parsed.heartbeat_mode();
      (void)parsed.key_share_group();
    } catch (const tls::wire::ParseError&) {
    }
  }
}

TEST(Fuzz, TypedAccessorsOnMutatedClientHello) {
  const auto base = sample_client_hello_bytes();
  tls::core::Rng rng(111);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = base;
    mutated[rng.below(mutated.size())] =
        static_cast<std::uint8_t>(rng.next());
    try {
      const auto ch = tls::wire::ClientHello::parse_record(mutated);
      (void)ch.server_name();
      (void)ch.supported_groups();
      (void)ch.ec_point_formats();
      (void)ch.supported_versions();
      (void)ch.heartbeat_mode();
      (void)ch.max_offered_version();
    } catch (const tls::wire::ParseError&) {
    }
  }
}

TEST(Fuzz, Sslv2Garbage) {
  tls::core::Rng rng(123);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes garbage(3 + rng.below(100));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    expect_parse_or_parse_error(
        garbage,
        [](const Bytes& b) { tls::wire::Sslv2ClientHello::parse(b); },
        "garbage sslv2");
  }
}

TEST(Fuzz, RecordLayerGarbageAndTruncation) {
  tls::core::Rng rng(201);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes garbage(rng.below(128));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    expect_parse_or_parse_error(
        garbage, [](const Bytes& b) { tls::wire::Record::parse(b); },
        "garbage record");
    expect_parse_or_parse_error(
        garbage,
        [](const Bytes& b) {
          std::size_t consumed = 0;
          tls::wire::Record::parse_prefix(b, &consumed);
        },
        "garbage record prefix");
    expect_parse_or_parse_error(
        garbage,
        [](const Bytes& b) { tls::wire::HandshakeMessage::parse(b); },
        "garbage handshake message");
  }
  // Every truncation of a valid record.
  tls::wire::Record rec;
  rec.fragment.assign(40, 0x17);
  const auto bytes = rec.serialize();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const Bytes prefix(bytes.begin(),
                       bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    expect_parse_or_parse_error(
        prefix, [](const Bytes& b) { tls::wire::Record::parse(b); },
        "truncated record");
  }
}

TEST(Fuzz, TranscriptStrictParsesOrThrowsLenientNeverThrows) {
  const auto ch_bytes = sample_client_hello_bytes();
  const Bytes base = tls::wire::client_flight(
      tls::wire::ClientHello::parse_record(ch_bytes), /*established=*/true);
  tls::core::Rng rng(202);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = base;
    const int flips = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.below(mutated.size())] =
          static_cast<std::uint8_t>(rng.next());
    }
    expect_parse_or_parse_error(
        mutated, [](const Bytes& b) { tls::wire::parse_flight(b); },
        "mutated flight (strict)");
    ASSERT_NO_THROW(tls::wire::parse_flight_lenient(mutated));
  }
  for (std::size_t cut = 0; cut < base.size(); ++cut) {
    const Bytes prefix(base.begin(),
                       base.begin() + static_cast<std::ptrdiff_t>(cut));
    ASSERT_NO_THROW(tls::wire::parse_flight_lenient(prefix));
  }
}

TEST(Fuzz, HeartbeatGarbageAndResponder) {
  tls::core::Rng rng(203);
  const tls::wire::HeartbeatResponder patched(false, Bytes(128, 0xaa));
  const tls::wire::HeartbeatResponder vulnerable(true, Bytes(128, 0xbb));
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes garbage(rng.below(96));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    expect_parse_or_parse_error(
        garbage,
        [](const Bytes& b) { tls::wire::HeartbeatMessage::parse_record(b); },
        "garbage heartbeat");
    // Responders face the same hostile input and must never throw: either
    // answer or silently drop.
    ASSERT_NO_THROW((void)patched.respond(garbage));
    ASSERT_NO_THROW((void)vulnerable.respond(garbage));
  }
}

TEST(Fuzz, ExtensionCodecGarbageBodies) {
  tls::core::Rng rng(204);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes body(rng.below(64));
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.next());
    expect_parse_or_parse_error(
        body, [](const Bytes& b) { tls::wire::parse_server_name(b); },
        "server_name");
    expect_parse_or_parse_error(
        body, [](const Bytes& b) { tls::wire::parse_supported_groups(b); },
        "supported_groups");
    expect_parse_or_parse_error(
        body, [](const Bytes& b) { tls::wire::parse_ec_point_formats(b); },
        "ec_point_formats");
    expect_parse_or_parse_error(
        body,
        [](const Bytes& b) { tls::wire::parse_supported_versions_client(b); },
        "supported_versions (client)");
    expect_parse_or_parse_error(
        body,
        [](const Bytes& b) { tls::wire::parse_supported_versions_server(b); },
        "supported_versions (server)");
    expect_parse_or_parse_error(
        body,
        [](const Bytes& b) { tls::wire::parse_signature_algorithms(b); },
        "signature_algorithms");
    expect_parse_or_parse_error(
        body, [](const Bytes& b) { tls::wire::parse_alpn(b); }, "alpn");
    expect_parse_or_parse_error(
        body, [](const Bytes& b) { tls::wire::parse_heartbeat(b); },
        "heartbeat mode");
    expect_parse_or_parse_error(
        body,
        [](const Bytes& b) { tls::wire::parse_key_share_client_groups(b); },
        "key_share (client)");
    expect_parse_or_parse_error(
        body,
        [](const Bytes& b) { tls::wire::parse_key_share_server_group(b); },
        "key_share (server)");
  }
}

TEST(Fuzz, FaultInjectorDrivenFlights) {
  // The chaos tap as a structured fuzzer: realistic flights, deterministic
  // structural corruption, and the parse-or-ParseError contract on top.
  const auto ch_bytes = sample_client_hello_bytes();
  const Bytes base = tls::wire::client_flight(
      tls::wire::ClientHello::parse_record(ch_bytes), /*established=*/true);
  tls::faults::FaultInjector injector(
      tls::faults::FaultConfig::bytes_only(1.0), 205);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes mutated = base;
    injector.corrupt_stream(mutated);
    expect_parse_or_parse_error(
        mutated, [](const Bytes& b) { tls::wire::parse_flight(b); },
        "injector-corrupted flight (strict)");
    const auto flight = tls::wire::parse_flight_lenient(mutated);
    // Legal re-framing (split/coalesce) keeps the record layer walkable;
    // everything else must either salvage a prefix or report the error.
    if (flight.stream_error.has_value()) {
      EXPECT_LE(flight.records.size(),
                tls::faults::record_offsets(mutated).size() + 1);
    }
    expect_parse_or_parse_error(
        mutated,
        [](const Bytes& b) { tls::wire::ClientHello::parse_record(b); },
        "injector-corrupted hello record");
  }
  EXPECT_EQ(injector.stats().total_faults(), 3000u);
}

TEST(Fuzz, AlertAndSkeGarbage) {
  tls::core::Rng rng(321);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes garbage(rng.below(64));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    expect_parse_or_parse_error(
        garbage, [](const Bytes& b) { tls::wire::Alert::parse_record(b); },
        "garbage alert");
    expect_parse_or_parse_error(
        garbage,
        [](const Bytes& b) {
          tls::wire::EcdheServerKeyExchange::parse_record(b);
        },
        "garbage ske");
  }
}

// ---- parse into a reused hello (the monitor's scratch) ----

/// ClientHello records from the catalog: every 8th hand-written profile's
/// newest config, and Chrome 2018 for GREASE.
std::vector<Bytes> catalog_client_hello_records() {
  const auto catalog = tls::clients::Catalog::core_only();
  tls::core::Rng rng(56);
  std::vector<Bytes> out{sample_client_hello_bytes()};
  const auto& profiles = catalog.profiles();
  for (std::size_t i = 0; i < profiles.size(); i += 8) {
    out.push_back(tls::clients::make_client_hello(profiles[i].versions.back(),
                                                  rng, "scratch.test")
                      .serialize_record());
  }
  return out;
}

std::vector<Bytes> sample_server_hello_records() {
  std::vector<Bytes> out;
  tls::wire::ServerHello tls13;
  tls13.cipher_suite = 0x1301;
  tls13.session_id.assign(32, 0x5a);
  tls13.extensions.push_back(tls::wire::make_supported_versions_server(0x0304));
  tls13.extensions.push_back(tls::wire::make_key_share_server(29));
  out.push_back(tls13.serialize_record());
  tls::wire::ServerHello tls12;
  tls12.cipher_suite = 0xc02f;
  tls12.extensions.push_back(tls::wire::make_renegotiation_info());
  tls12.extensions.push_back(tls::wire::make_extended_master_secret());
  tls12.extensions.push_back(tls::wire::make_heartbeat(1));
  tls12.extensions.push_back(tls::wire::make_ec_point_formats(
      std::vector<std::uint8_t>{0}));
  out.push_back(tls12.serialize_record());
  tls::wire::ServerHello bare;
  bare.legacy_version = 0x0300;
  bare.cipher_suite = 0x0005;
  out.push_back(bare.serialize_record());
  return out;
}

/// `hello` with a full session_id and eight more extensions, all with
/// bodies: a scratch that held it has more, and longer, slots than any
/// sample needs.
template <typename Hello>
Bytes longer_record(Hello hello) {
  hello.session_id.assign(32, 0xee);
  for (int i = 0; i < 8; ++i) {
    hello.extensions.push_back(tls::wire::make_padding(24 + 8 * i));
  }
  return hello.serialize_record();
}

/// Parses `data` into `scratch` right after `scratch` held the longer
/// record: the result must equal a fresh parse, or throw the code a fresh
/// parse throws; after a throw, a valid parse into the same scratch must
/// equal its fresh parse too.
template <typename Hello>
void expect_reused_parse_matches_fresh(const Bytes& data, const Bytes& longer,
                                       const Bytes& valid, Hello& scratch,
                                       const std::string& what) {
  std::optional<Hello> fresh;
  std::optional<tls::wire::ParseErrorCode> fresh_code;
  try {
    fresh = Hello::parse_record(data);
  } catch (const tls::wire::ParseError& e) {
    fresh_code = e.code();
  }
  Hello::parse_record_into(longer, scratch);
  try {
    Hello::parse_record_into(data, scratch);
    ASSERT_TRUE(fresh.has_value()) << what << ": only the reused parse passed";
    EXPECT_TRUE(scratch == *fresh) << what;
  } catch (const tls::wire::ParseError& e) {
    ASSERT_TRUE(fresh_code.has_value()) << what << ": only the reused threw";
    EXPECT_EQ(*fresh_code, e.code()) << what;
    Hello::parse_record_into(valid, scratch);
    EXPECT_TRUE(scratch == Hello::parse_record(valid)) << what
                                                       << " (after a throw)";
  }
}

template <typename Hello>
void fuzz_reused_parse(const std::vector<Bytes>& records, const Bytes& longer,
                       tls::core::Rng& rng) {
  Hello scratch;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const Bytes& rec = records[r];
    const std::string what = "record " + std::to_string(r);
    for (std::size_t cut = 0; cut < rec.size(); ++cut) {
      expect_reused_parse_matches_fresh(
          Bytes(rec.begin(), rec.begin() + static_cast<std::ptrdiff_t>(cut)),
          longer, rec, scratch, what + " cut at " + std::to_string(cut));
    }
    for (int trial = 0; trial < 300; ++trial) {
      Bytes mutated = rec;
      const int flips = 1 + static_cast<int>(rng.below(4));
      for (int i = 0; i < flips; ++i) {
        mutated[rng.below(mutated.size())] =
            static_cast<std::uint8_t>(rng.next());
      }
      expect_reused_parse_matches_fresh(
          mutated, longer, rec, scratch,
          what + " mutation " + std::to_string(trial));
    }
  }
}

/// The copying chain handshake_body_view replaced: the body, or the code.
std::variant<Bytes, tls::wire::ParseErrorCode> copy_chain_unwrap(
    const Bytes& data, tls::wire::HandshakeType expected) {
  using tls::wire::ParseError;
  using tls::wire::ParseErrorCode;
  try {
    const auto rec = tls::wire::Record::parse(data);
    if (rec.type != tls::wire::ContentType::kHandshake) {
      throw ParseError(ParseErrorCode::kBadValue, "not a handshake record");
    }
    auto m = tls::wire::HandshakeMessage::parse(rec.fragment);
    if (m.type != expected) {
      throw ParseError(ParseErrorCode::kBadValue, "unexpected handshake type");
    }
    return std::move(m.body);
  } catch (const ParseError& e) {
    return e.code();
  }
}

/// Record-layer garbage that gets past the first checks often: a plausible
/// content type, handshake type and length fields that are right, or off by
/// a little, and sometimes a truncation.
Bytes record_layer_garbage(tls::core::Rng& rng) {
  const auto pick = [&](std::uint64_t n) { return rng.below(n); };
  Bytes body(pick(40));
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.next());
  static constexpr std::uint8_t kHandshakeTypes[] = {1, 2, 12, 11};
  Bytes fragment;
  fragment.push_back(pick(4) == 0 ? static_cast<std::uint8_t>(rng.next())
                                  : kHandshakeTypes[pick(4)]);
  const std::size_t hs_len = body.size() + (pick(4) == 0 ? pick(5) : 0) -
                             (pick(4) == 0 ? std::min<std::size_t>(
                                                 pick(5), body.size())
                                           : 0);
  fragment.push_back(static_cast<std::uint8_t>(hs_len >> 16));
  fragment.push_back(static_cast<std::uint8_t>(hs_len >> 8));
  fragment.push_back(static_cast<std::uint8_t>(hs_len));
  fragment.insert(fragment.end(), body.begin(), body.end());
  Bytes out;
  out.push_back(pick(4) == 0 ? static_cast<std::uint8_t>(rng.next())
                             : static_cast<std::uint8_t>(20 + pick(5)));
  out.push_back(3);
  out.push_back(static_cast<std::uint8_t>(pick(4)));
  const std::size_t frag_len = fragment.size() + (pick(4) == 0 ? pick(5) : 0);
  out.push_back(static_cast<std::uint8_t>(frag_len >> 8));
  out.push_back(static_cast<std::uint8_t>(frag_len));
  out.insert(out.end(), fragment.begin(), fragment.end());
  if (pick(4) == 0) out.push_back(static_cast<std::uint8_t>(rng.next()));
  if (pick(4) == 0) out.resize(pick(out.size() + 1));
  return out;
}

TEST(Fuzz, ParseIntoReusedScratchMatchesFreshParse) {
  tls::core::Rng rng(0x5c7a7c4);
  const auto clients = catalog_client_hello_records();
  std::size_t most = 0;
  for (std::size_t i = 1; i < clients.size(); ++i) {
    if (clients[i].size() > clients[most].size()) most = i;
  }
  fuzz_reused_parse<tls::wire::ClientHello>(
      clients,
      longer_record(tls::wire::ClientHello::parse_record(clients[most])), rng);
  const auto servers = sample_server_hello_records();
  fuzz_reused_parse<tls::wire::ServerHello>(
      servers, longer_record(tls::wire::ServerHello::parse_record(servers[0])),
      rng);

  // handshake_body_view against the copying Record::parse ->
  // HandshakeMessage::parse chain: the same body or the same code.
  for (int trial = 0; trial < 20000; ++trial) {
    const Bytes data = record_layer_garbage(rng);
    for (const auto type : {tls::wire::HandshakeType::kClientHello,
                            tls::wire::HandshakeType::kServerHello,
                            tls::wire::HandshakeType::kServerKeyExchange}) {
      const auto want = copy_chain_unwrap(data, type);
      try {
        const auto body = tls::wire::handshake_body_view(data, type);
        ASSERT_TRUE(std::holds_alternative<Bytes>(want)) << "trial " << trial;
        EXPECT_EQ(Bytes(body.begin(), body.end()), std::get<Bytes>(want))
            << "trial " << trial;
      } catch (const tls::wire::ParseError& e) {
        ASSERT_TRUE(std::holds_alternative<tls::wire::ParseErrorCode>(want))
            << "trial " << trial;
        EXPECT_EQ(e.code(), std::get<tls::wire::ParseErrorCode>(want))
            << "trial " << trial;
      }
    }
  }
}

// ---- checkpoint journal decoders (core/checkpoint.hpp, notary/snapshot) --
// These parse bytes read back from disk, where a crash or media fault can
// have left literally anything; the journal's never-abort recovery contract
// rests on the same parse-or-ParseError guarantee as the wire parsers.

TEST(Fuzz, CheckpointFrameTruncationAndMutation) {
  const Bytes payload = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};
  const auto frame = tls::study::encode_frame(
      0x1234, {tls::study::FrameKind::kPassiveShard, 500, 3}, payload);
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    expect_parse_or_parse_error(
        Bytes(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(cut)),
        [](const Bytes& b) { (void)tls::study::decode_frame(b); },
        "truncated checkpoint frame");
  }
  tls::core::Rng rng(91);
  for (int trial = 0; trial < 3000; ++trial) {
    auto mutated = frame;
    const int flips = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    expect_parse_or_parse_error(
        mutated, [](const Bytes& b) { (void)tls::study::decode_frame(b); },
        "mutated checkpoint frame");
  }
}

TEST(Fuzz, CheckpointFrameHostileLengthPrefix) {
  // A flipped payload_len must be caught by the bounds/size checks, never
  // trusted. Craft frames whose declared length disagrees with reality.
  auto frame = tls::study::encode_frame(
      7, {tls::study::FrameKind::kPassiveShard, 1, 1}, Bytes(16, 0x55));
  // payload_len is the u32 right before the 16 payload bytes + 8 checksum.
  const std::size_t len_off = frame.size() - 16 - 8 - 4;
  for (const std::uint8_t hostile : {0x00, 0x01, 0x7f, 0xff}) {
    auto bad = frame;
    bad[len_off] = hostile;      // high byte: up to a 4 GiB claim
    bad[len_off + 3] ^= hostile; // low byte too
    expect_parse_or_parse_error(
        bad, [](const Bytes& b) { (void)tls::study::decode_frame(b); },
        "hostile frame length");
  }
}

TEST(Fuzz, JournalGroupTruncationAndMutation) {
  // Group records are the journal's unit of durability; any damage must
  // surface as ParseError from decode_group — never a crash, hang, or
  // wrong bytes silently accepted.
  std::vector<Bytes> frames;
  for (std::uint32_t s = 0; s < 3; ++s) {
    frames.push_back(tls::study::encode_frame(
        0xfeed, {tls::study::FrameKind::kPassiveShard, 400, s},
        Bytes(24 + s, static_cast<std::uint8_t>(s))));
  }
  const auto group = tls::study::encode_group(0xfeed, frames);
  std::size_t consumed = 0;
  for (std::size_t cut = 0; cut < group.size(); ++cut) {
    EXPECT_THROW(
        (void)tls::study::decode_group({group.data(), cut}, &consumed),
        tls::wire::ParseError)
        << "prefix " << cut;
  }
  // Every single-bit flip anywhere in the record is detected.
  for (std::size_t i = 0; i < group.size(); ++i) {
    for (const std::uint8_t bit : {0x01, 0x80}) {
      auto bad = group;
      bad[i] ^= bit;
      EXPECT_THROW((void)tls::study::decode_group(bad, &consumed),
                   tls::wire::ParseError)
          << "byte " << i;
    }
  }
  // Multi-bit random mutations never escape the ParseError contract.
  tls::core::Rng rng(93);
  for (int trial = 0; trial < 3000; ++trial) {
    auto mutated = group;
    const int flips = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    expect_parse_or_parse_error(
        mutated,
        [](const Bytes& b) {
          std::size_t used = 0;
          (void)tls::study::decode_group(b, &used);
        },
        "mutated group record");
  }
}

TEST(Fuzz, JournalGroupHostileCounts) {
  // frame_count and payload_len live in the fixed header; hostile values
  // must be bounds-rejected before any allocation is sized from them.
  const std::vector<Bytes> frames = {tls::study::encode_frame(
      1, {tls::study::FrameKind::kPassiveShard, 2, 2}, Bytes(8, 0x11))};
  const auto group = tls::study::encode_group(1, frames);
  std::size_t consumed = 0;
  // offsets: magic u32 | format u32 | digest u64 | frame_count u32 @16 |
  // payload_len u32 @20 (big-endian per ByteWriter).
  for (const std::size_t off : {std::size_t{16}, std::size_t{20}}) {
    for (const std::uint8_t hostile : {0x7f, 0xff}) {
      auto bad = group;
      bad[off] = hostile;  // high byte: claims up to 4 GiB / 4G frames
      EXPECT_THROW((void)tls::study::decode_group(bad, &consumed),
                   tls::wire::ParseError);
    }
  }
  // A frame length prefix pointing past the payload is caught too.
  auto bad = group;
  bad[tls::study::kGroupHeaderSize + 3] = 0xff;
  EXPECT_THROW((void)tls::study::decode_group(bad, &consumed),
               tls::wire::ParseError);
}

TEST(Fuzz, JournalSegmentScanNeverThrowsAndNeverMiscounts) {
  // scan_segment is the recovery entry point: whatever a crashed disk
  // holds, it must partition the bytes into committed groups + torn tail
  // without throwing, and the two must always add up to the input size.
  tls::core::Rng rng(94);
  const auto check = [](const Bytes& segment) {
    const auto scan = tls::study::scan_segment(segment);
    EXPECT_EQ(scan.valid_bytes + scan.torn_bytes, segment.size());
    EXPECT_LE(scan.valid_bytes, segment.size());
    return scan;
  };
  // Pure garbage of many sizes.
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes garbage(rng.below(600));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    const auto scan = check(garbage);
    EXPECT_EQ(scan.groups * 0, 0u);  // no crash is the property under test
  }
  // Valid multi-group segments with a random mutation: the scan stops at
  // (or before) the damage and the intact prefix replays unchanged.
  std::vector<Bytes> frames;
  for (std::uint32_t s = 0; s < 2; ++s) {
    frames.push_back(tls::study::encode_frame(
        5, {tls::study::FrameKind::kPassiveShard, 300, s}, Bytes(30, 0x3c)));
  }
  Bytes segment;
  for (int g = 0; g < 4; ++g) {
    const auto group = tls::study::encode_group(5, frames);
    segment.insert(segment.end(), group.begin(), group.end());
  }
  const auto clean = check(segment);
  EXPECT_EQ(clean.groups, 4u);
  EXPECT_EQ(clean.torn_bytes, 0u);
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = segment;
    mutated[rng.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u + rng.below(255));
    const auto scan = check(mutated);
    EXPECT_LT(scan.groups, 4u);  // the damaged group can never survive
    for (const auto& frame : scan.frames) {
      // Frames recovered from checksummed groups are bit-exact originals.
      EXPECT_TRUE(frame == frames[0] || frame == frames[1]);
    }
  }
  // Duplicated group records: the scan reports both copies (dedupe is the
  // replay layer's job) and still accounts for every byte.
  Bytes doubled = segment;
  doubled.insert(doubled.end(), segment.begin(), segment.end());
  EXPECT_EQ(check(doubled).groups, 8u);
}

TEST(Fuzz, CheckpointManifestGarbage) {
  tls::study::CheckpointManifest manifest;
  manifest.options_digest = 99;
  const auto bytes = tls::study::encode_manifest(manifest);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    expect_parse_or_parse_error(
        Bytes(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)),
        [](const Bytes& b) { (void)tls::study::decode_manifest(b); },
        "truncated manifest");
  }
  tls::core::Rng rng(92);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes garbage(rng.below(96));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    expect_parse_or_parse_error(
        garbage, [](const Bytes& b) { (void)tls::study::decode_manifest(b); },
        "garbage manifest");
  }
}

TEST(Fuzz, MonitorSnapshotGarbageAndStaleVersion) {
  const tls::notary::PassiveMonitor empty;
  const auto valid = tls::notary::encode_monitor_state(empty);
  // Stale/foreign snapshot version: first u32.
  for (const std::uint32_t v : {0u, 2u, 0xffffffffu}) {
    auto stale = valid;
    stale[0] = static_cast<std::uint8_t>(v >> 24);
    stale[1] = static_cast<std::uint8_t>(v >> 16);
    stale[2] = static_cast<std::uint8_t>(v >> 8);
    stale[3] = static_cast<std::uint8_t>(v);
    expect_parse_or_parse_error(
        stale,
        [](const Bytes& b) { (void)tls::notary::decode_monitor_state(b); },
        "stale snapshot version");
  }
  tls::core::Rng rng(93);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes garbage(4 + rng.below(128));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    // Half the trials keep a valid version header so the fuzz reaches the
    // section decoders instead of dying at the version gate.
    if (trial % 2 == 0) {
      garbage[0] = garbage[1] = garbage[2] = 0;
      garbage[3] = 1;
    }
    expect_parse_or_parse_error(
        garbage,
        [](const Bytes& b) { (void)tls::notary::decode_monitor_state(b); },
        "garbage monitor snapshot");
  }
}

TEST(Fuzz, GenCacheTemplatePatchMatchesFromScratchSerialization) {
  // The GenCache fast path rests on one invariant: splicing the 32-byte
  // random (and, when present, a 32-byte session id) into the compiled
  // record bytes at the fixed offsets yields exactly serialize_record() of
  // the identically patched hello. Fuzz it over every standard-catalog
  // config × RNG states, base and resume variants.
  using tls::population::GenCache;
  const auto catalog = tls::clients::Catalog::standard();
  tls::core::Rng rng(0x7e3a11);
  std::size_t patched = 0, bypassed = 0;
  for (const auto& profile : catalog.profiles()) {
    for (const auto& cfg : profile.versions) {
      const GenCache::TemplateSet ts = GenCache::compile(cfg);
      if (ts.bypass) {
        // Only connection-variant hellos may skip the template path.
        EXPECT_TRUE(cfg.grease || cfg.randomizes_cipher_order) << profile.name;
        ++bypassed;
        continue;
      }
      ASSERT_EQ(ts.base.wire, ts.base.hello.serialize_record());
      if (ts.base.has_session_id) {
        // generate_into patches exactly 32 id bytes; any other emitted
        // length would corrupt the record.
        ASSERT_EQ(ts.base.hello.session_id.size(), 32u) << profile.name;
      }
      const auto patch_and_check = [&](const GenCache::WireTemplate& tm) {
        auto hello = tm.hello;
        auto wire = tm.wire;
        ASSERT_LE(GenCache::kRandomOffset + 32, wire.size());
        for (auto& b : hello.random) b = static_cast<std::uint8_t>(rng.next());
        std::copy(hello.random.begin(), hello.random.end(),
                  wire.begin() + GenCache::kRandomOffset);
        if (tm.has_session_id) {
          ASSERT_LE(GenCache::kSessionIdOffset + 32, wire.size());
          hello.session_id.resize(32);
          for (auto& b : hello.session_id) {
            b = static_cast<std::uint8_t>(rng.next());
          }
          std::copy(hello.session_id.begin(), hello.session_id.end(),
                    wire.begin() + GenCache::kSessionIdOffset);
        }
        ASSERT_EQ(wire, hello.serialize_record()) << profile.name;
        ++patched;
      };
      for (int iter = 0; iter < 8; ++iter) {
        patch_and_check(ts.base);
        if (ts.has_resume) patch_and_check(ts.resume);
      }
    }
  }
  EXPECT_GT(patched, 1000u);
  EXPECT_GT(bypassed, 0u);  // the standard catalog has GREASE configs
}

// ---- daemon wire protocol (src/daemon/protocol.hpp) ---------------------
// The FrameDecoder contract is NEVER-throwing: arbitrary bytes in arbitrary
// chunkings must yield frames or a poisoned decoder, nothing else. These
// lanes drive it the way a hostile/flaky network would.

tls::daemon::CapturePayload sample_capture() {
  tls::daemon::CapturePayload cap;
  cap.month_index = tls::core::Month(2016, 3).index();
  cap.day = tls::core::Date(2016, 3, 14);
  cap.success = true;
  cap.client = sample_client_hello_bytes();
  cap.server = {0x16, 0x03, 0x03, 0x00, 0x02, 0x0e, 0x00};
  return cap;
}

Bytes sample_daemon_stream() {
  using tls::daemon::FrameType;
  Bytes stream;
  const auto append = [&stream](FrameType type, const Bytes& payload) {
    const auto f = tls::daemon::encode_frame(type, payload);
    stream.insert(stream.end(), f.begin(), f.end());
  };
  append(FrameType::kHello, {'f', 'u', 'z', 'z'});
  append(FrameType::kCapture, tls::daemon::encode_capture(sample_capture()));
  append(FrameType::kQueryStats, {});
  tls::daemon::append_credit_grant(stream, 8);
  append(FrameType::kGoodbye, {});
  return stream;
}

TEST(Fuzz, DaemonDecoderEveryChunkingYieldsTheSameFrames) {
  const auto stream = sample_daemon_stream();
  // Reference: one whole-stream feed.
  tls::daemon::FrameDecoder whole;
  const auto expected = whole.feed(stream);
  ASSERT_EQ(expected.size(), 5u);
  EXPECT_FALSE(whole.poisoned());
  EXPECT_EQ(whole.buffered_bytes(), 0u);

  // Interleaved partial reads: every fixed chunk size, including the
  // slow-loris one-byte-at-a-time case, reassembles identical frames.
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    tls::daemon::FrameDecoder decoder;
    std::vector<tls::daemon::Frame> got;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const auto n = std::min(chunk, stream.size() - off);
      auto frames = decoder.feed({stream.data() + off, n});
      for (auto& f : frames) got.push_back(std::move(f));
    }
    ASSERT_EQ(got.size(), expected.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].type, expected[i].type) << "chunk=" << chunk;
      EXPECT_EQ(got[i].payload, expected[i].payload) << "chunk=" << chunk;
    }
    EXPECT_FALSE(decoder.poisoned());
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }

  // Every truncation of the stream: whole frames up to the cut decode,
  // nothing throws, and the remainder stays buffered, never fabricated.
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    tls::daemon::FrameDecoder decoder;
    const auto frames = decoder.feed({stream.data(), cut});
    EXPECT_LE(frames.size(), 5u);
    EXPECT_FALSE(decoder.poisoned()) << "prefix " << cut;
  }
}

// The view API is the same decoder: append() + next() under every fixed
// chunking yields exactly the frames of one whole-stream feed(), each view
// read before the next append().
TEST(Fuzz, DaemonDecoderViewsMatchFeedUnderEveryChunking) {
  const auto stream = sample_daemon_stream();
  tls::daemon::FrameDecoder whole;
  const auto expected = whole.feed(stream);
  ASSERT_EQ(expected.size(), 5u);
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    tls::daemon::FrameDecoder decoder;
    std::vector<tls::daemon::Frame> got;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      decoder.append({stream.data() + off,
                      std::min(chunk, stream.size() - off)});
      while (const auto view = decoder.next()) {
        got.push_back(
            {view->type, {view->payload.begin(), view->payload.end()}});
      }
    }
    ASSERT_EQ(got.size(), expected.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].type, expected[i].type) << "chunk=" << chunk;
      EXPECT_EQ(got[i].payload, expected[i].payload) << "chunk=" << chunk;
    }
    EXPECT_FALSE(decoder.poisoned());
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(Fuzz, DaemonDecoderMutationsNeverThrowAndPoisonIsPermanent) {
  const auto stream = sample_daemon_stream();
  const auto valid_tail = tls::daemon::encode_frame(
      tls::daemon::FrameType::kQueryStats, {});
  tls::core::Rng rng(0xdae);
  for (int trial = 0; trial < 3000; ++trial) {
    auto mutated = stream;
    const int flips = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    tls::daemon::FrameDecoder decoder;
    std::size_t frames_out = 0;
    try {
      // Random chunking while mutated — partial reads plus corruption.
      std::size_t off = 0;
      while (off < mutated.size()) {
        const auto n =
            std::min<std::size_t>(1 + rng.below(64), mutated.size() - off);
        frames_out += decoder.feed({mutated.data() + off, n}).size();
        off += n;
      }
      if (decoder.poisoned()) {
        // Poison is permanent: a perfectly valid frame after the damage
        // must be ignored, and the poison prefix is bounded for booking.
        EXPECT_NE(decoder.error(), tls::daemon::DecodeError::kNone);
        EXPECT_TRUE(decoder.feed(valid_tail).empty());
        EXPECT_LE(decoder.poison_prefix().size(), 64u);
        EXPECT_NE(std::string(
                      tls::daemon::decode_error_name(decoder.error())),
                  "?");
      } else {
        // Flips that keep all five checksums valid are astronomically
        // unlikely; flips confined to payload bytes are caught by the
        // checksum, so surviving frames must be checksum-clean decodes.
        EXPECT_LE(frames_out, 5u);
      }
    } catch (const std::exception& e) {
      FAIL() << "daemon decoder threw on mutated stream: " << e.what();
    }
  }
}

TEST(Fuzz, DaemonDecoderRandomGarbageIsBoundedAndSilent) {
  tls::core::Rng rng(0xfeedd);
  for (int trial = 0; trial < 3000; ++trial) {
    Bytes garbage(rng.below(512));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    tls::daemon::FrameDecoder decoder(/*max_frame_bytes=*/4096);
    try {
      const auto frames = decoder.feed(garbage);
      // Random bytes can't mint a checksummed frame.
      EXPECT_TRUE(frames.empty());
      // Bounded memory: whatever happened, the decoder holds no more than
      // the bytes it was fed, and a poisoned one books a capped prefix.
      EXPECT_LE(decoder.buffered_bytes(), garbage.size());
      EXPECT_LE(decoder.poison_prefix().size(), 64u);
    } catch (const std::exception& e) {
      FAIL() << "daemon decoder threw on garbage: " << e.what();
    }
  }
}

TEST(Fuzz, DaemonCapturePayloadTruncationAndMutation) {
  const auto payload = tls::daemon::encode_capture(sample_capture());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    expect_parse_or_parse_error(
        Bytes(payload.begin(),
              payload.begin() + static_cast<std::ptrdiff_t>(cut)),
        [](const Bytes& b) { (void)tls::daemon::decode_capture(b); },
        "truncated capture payload");
  }
  tls::core::Rng rng(0xcab);
  for (int trial = 0; trial < 3000; ++trial) {
    auto mutated = payload;
    const int flips = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    expect_parse_or_parse_error(
        mutated, [](const Bytes& b) { (void)tls::daemon::decode_capture(b); },
        "mutated capture payload");
  }
}

TEST(Fuzz, DaemonCreditMachinesHoldInvariantsUnderRandomOps) {
  // Drive gate + client with a random op mix, including hostile grants the
  // protocol forbids, and check the conservation invariants after every
  // step: the gate never lets outstanding exceed its window, credits are
  // neither minted nor destroyed (outstanding + returnable + granted ==
  // consumed), and the client saturates instead of wrapping.
  tls::core::Rng rng(0x9c4ed17);
  for (int trial = 0; trial < 200; ++trial) {
    const auto window = static_cast<std::uint32_t>(1 + rng.below(16));
    tls::daemon::CreditGate gate(window);
    tls::daemon::CreditClient client;
    client.on_grant(window);  // accept-time grant, as the daemon sends
    std::uint64_t consumed = 0, resolved = 0, granted_back = 0;
    std::uint64_t violations = 0;
    for (int op = 0; op < 400; ++op) {
      switch (rng.below(5)) {
        case 0:  // client tries to send; gate must agree with its mirror
          if (client.try_send()) {
            if (!gate.consume()) {
              // Client had a credit the gate didn't — only possible after
              // a hostile grant below inflated the client.
              ++violations;
            } else {
              ++consumed;
            }
          }
          break;
        case 1:  // a capture resolves (ingest or shed)
          if (gate.outstanding() > 0) {
            gate.complete();
            ++resolved;
          }
          break;
        case 2: {  // daemon flushes a grant batch to the client
          const auto grant = gate.take_grant();
          granted_back += grant;
          if (grant > 0) client.on_grant(grant);
          break;
        }
        case 3:  // spurious complete (nothing outstanding): clamp, not wrap
          if (gate.outstanding() == 0) gate.complete();
          break;
        case 4:  // hostile grant: client must saturate, never wrap to 0
          if (rng.below(8) == 0) {
            client.on_grant(0xffffffffu);
            EXPECT_EQ(client.available(), 0xffffffffu);
          }
          break;
      }
      ASSERT_LE(gate.outstanding(), window);
      ASSERT_LE(gate.returnable() + gate.outstanding(), window);
      // Conservation: every consumed credit is outstanding, granted back,
      // or awaiting a grant — never minted, never destroyed.
      ASSERT_EQ(consumed,
                gate.outstanding() + granted_back + gate.returnable());
      ASSERT_EQ(resolved, granted_back + gate.returnable());
      // take_grant drains fully.
      if (gate.returnable() == 0) EXPECT_EQ(gate.take_grant(), 0u);
    }
    // Quiesce: resolve everything outstanding; all credits come home.
    while (gate.outstanding() > 0) {
      gate.complete();
      ++resolved;
    }
    granted_back += gate.take_grant();
    EXPECT_EQ(consumed, resolved);
    EXPECT_EQ(granted_back, resolved);
    EXPECT_EQ(gate.returnable(), 0u);
  }
}

// The flight-dump decoder and renderer are post-mortem tools: they must
// survive arbitrary mutation or truncation of a FLIGHT.bin image (torn
// crash dumps, half-written autodumps) without throwing — a best-effort
// rendering of damaged evidence beats an exception in the debugger.
TEST(Fuzz, FlightDecoderAndRendererNeverThrow) {
  tls::telemetry::FlightRecorder recorder(3, 16);
  tls::core::Rng seed_rng(1717);
  for (int i = 0; i < 64; ++i) {
    recorder.lane(seed_rng.below(3))
        .record(static_cast<tls::telemetry::FlightEventKind>(
                    1 + seed_rng.below(14)),
                static_cast<std::uint32_t>(seed_rng.next()), seed_rng.next(),
                i);
  }
  const auto image = recorder.serialize();

  tls::core::Rng rng(9191);
  for (int trial = 0; trial < 400; ++trial) {
    auto mutated = image;
    const int flips = 1 + static_cast<int>(rng.below(16));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] =
          static_cast<std::uint8_t>(rng.next());
    }
    if (rng.below(4) == 0) mutated.resize(rng.below(mutated.size() + 1));
    try {
      const auto dump = tls::telemetry::decode_flight(
          {mutated.data(), mutated.size()});
      // Decoded events are bounded by the declared geometry.
      EXPECT_LE(dump.events.size(),
                dump.totals.size() * std::size_t{dump.ring_capacity});
      (void)tls::telemetry::render_flight({mutated.data(), mutated.size()},
                                          /*max_events=*/256);
    } catch (...) {
      FAIL() << "flight decode/render threw on trial " << trial;
    }
  }
  // Pure random garbage, including sizes that mimic a plausible header.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> garbage(rng.below(4096));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    try {
      (void)tls::telemetry::decode_flight({garbage.data(), garbage.size()});
      (void)tls::telemetry::render_flight({garbage.data(), garbage.size()});
    } catch (...) {
      FAIL() << "flight decode/render threw on garbage trial " << trial;
    }
  }
}

}  // namespace
