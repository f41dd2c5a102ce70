// Monitor snapshot codec (notary/snapshot.hpp): the journal's payload
// format. Contract under test: decode(encode(m)) is absorb-equivalent to m
// bit for bit (including the Fig. 5 double accumulators), the encoding is
// a deterministic function of the state, and hostile bytes are rejected
// with ParseError — never a crash, never an out-of-bounds access.
#include <gtest/gtest.h>

#include <vector>

#include "clients/catalog.hpp"
#include "faults/injector.hpp"
#include "notary/monitor.hpp"
#include "notary/snapshot.hpp"
#include "population/market.hpp"
#include "population/traffic.hpp"
#include "servers/population.hpp"
#include "tlscore/rng.hpp"
#include "wire/errors.hpp"

namespace {

using tls::core::Month;
using tls::core::MonthRange;
using tls::notary::PassiveMonitor;
using tls::notary::decode_monitor_state;
using tls::notary::encode_monitor_state;

/// A monitor with every subsystem populated: months, fingerprints,
/// durations, taxonomy, quarantine ring, fault bypasses and cache stats.
PassiveMonitor populated_monitor(const tls::fp::FingerprintDatabase* db,
                                 double fault_rate, std::uint64_t seed) {
  PassiveMonitor mon(db);
  tls::faults::FaultInjector injector(
      tls::faults::FaultConfig::uniform(fault_rate), seed ^ 0xfa17);
  if (fault_rate > 0) mon.set_fault_injector(&injector);
  const auto catalog = tls::clients::Catalog::core_only();
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);
  tls::population::TrafficGenerator gen(market, servers, seed);
  gen.generate_range({Month(2015, 11), Month(2016, 2)}, 600,
                     [&](const tls::population::ConnectionEvent& ev) {
                       mon.observe(ev);
                     });
  mon.set_fault_injector(nullptr);
  return mon;
}

void expect_same_state(const PassiveMonitor& a, const PassiveMonitor& b) {
  EXPECT_EQ(a.total_connections(), b.total_connections());
  EXPECT_EQ(a.fingerprintable_connections(), b.fingerprintable_connections());
  EXPECT_EQ(a.labeled_connections(), b.labeled_connections());
  EXPECT_EQ(a.errors().total(), b.errors().total());
  EXPECT_EQ(a.quarantine().total_pushed(), b.quarantine().total_pushed());
  ASSERT_EQ(a.quarantine().size(), b.quarantine().size());
  for (std::size_t i = 0; i < a.quarantine().size(); ++i) {
    EXPECT_EQ(a.quarantine()[i].stage, b.quarantine()[i].stage);
    EXPECT_EQ(a.quarantine()[i].code, b.quarantine()[i].code);
    EXPECT_EQ(a.quarantine()[i].month, b.quarantine()[i].month);
    EXPECT_EQ(a.quarantine()[i].prefix, b.quarantine()[i].prefix);
  }
  ASSERT_EQ(a.months().size(), b.months().size());
  for (const auto& [m, sa] : a.months()) {
    const auto* sb = b.month(m);
    ASSERT_NE(sb, nullptr) << m.to_string();
    EXPECT_EQ(sa.total, sb->total) << m.to_string();
    EXPECT_EQ(sa.successful, sb->successful) << m.to_string();
    EXPECT_EQ(sa.failures, sb->failures) << m.to_string();
    EXPECT_EQ(sa.quarantined, sb->quarantined) << m.to_string();
    EXPECT_EQ(sa.one_sided_client, sb->one_sided_client) << m.to_string();
    EXPECT_EQ(sa.adv_tls13, sb->adv_tls13) << m.to_string();
    EXPECT_EQ(sa.resumed, sb->resumed) << m.to_string();
    EXPECT_EQ(sa.fingerprints, sb->fingerprints) << m.to_string();
    EXPECT_EQ(sa.parse_errors(), sb->parse_errors()) << m.to_string();
    EXPECT_EQ(sa.negotiated_version(), sb->negotiated_version());
    EXPECT_EQ(sa.negotiated_class(), sb->negotiated_class());
    EXPECT_EQ(sa.negotiated_aead(), sb->negotiated_aead());
    EXPECT_EQ(sa.negotiated_kex(), sb->negotiated_kex());
    EXPECT_EQ(sa.negotiated_group(), sb->negotiated_group());
    EXPECT_EQ(sa.adv_tls13_versions(), sb->adv_tls13_versions());
    EXPECT_EQ(sa.alerts(), sb->alerts());
    // Bit-exact doubles — the journal's whole reason for bit_cast.
    EXPECT_EQ(sa.pos_aead.sum, sb->pos_aead.sum) << m.to_string();
    EXPECT_EQ(sa.pos_aead.n, sb->pos_aead.n) << m.to_string();
    EXPECT_EQ(sa.pos_cbc.sum, sb->pos_cbc.sum) << m.to_string();
    EXPECT_EQ(sa.pos_rc4.sum, sb->pos_rc4.sum) << m.to_string();
    EXPECT_EQ(sa.pos_des.sum, sb->pos_des.sum) << m.to_string();
    EXPECT_EQ(sa.pos_3des.sum, sb->pos_3des.sum) << m.to_string();
  }
  ASSERT_EQ(a.durations().size(), b.durations().size());
  for (const auto& [hash, la] : a.durations().lifetimes()) {
    const auto it = b.durations().lifetimes().find(hash);
    ASSERT_NE(it, b.durations().lifetimes().end()) << hash;
    EXPECT_EQ(la.first_day, it->second.first_day);
    EXPECT_EQ(la.last_day, it->second.last_day);
    EXPECT_EQ(la.connections, it->second.connections);
  }
}

TEST(MonitorSnapshot, RoundTripPreservesEveryCounter) {
  tls::fp::FingerprintDatabase db;
  const auto mon = populated_monitor(&db, 0.15, 77);
  ASSERT_GT(mon.total_connections(), 0u);
  ASSERT_GT(mon.errors().total(), 0u);           // taxonomy populated
  ASSERT_GT(mon.quarantine().total_pushed(), 0u);  // ring populated

  const auto bytes = encode_monitor_state(mon);
  const auto decoded = decode_monitor_state(bytes, &db);
  expect_same_state(mon, decoded);
}

TEST(MonitorSnapshot, EncodingIsDeterministic) {
  tls::fp::FingerprintDatabase db;
  const auto mon = populated_monitor(&db, 0.10, 13);
  const auto bytes = encode_monitor_state(mon);
  EXPECT_EQ(encode_monitor_state(mon), bytes);
  // encode(decode(encode(m))) is a fixed point: the decoded monitor holds
  // the same state, so it must serialize to the same bytes.
  const auto decoded = decode_monitor_state(bytes, &db);
  EXPECT_EQ(encode_monitor_state(decoded), bytes);
}

TEST(MonitorSnapshot, AbsorbingDecodedEqualsAbsorbingOriginal) {
  tls::fp::FingerprintDatabase db;
  const auto shard_a = populated_monitor(&db, 0.10, 5);
  const auto shard_b = populated_monitor(&db, 0.0, 6);

  PassiveMonitor via_original(&db);
  via_original.absorb(shard_a);
  via_original.absorb(shard_b);

  PassiveMonitor via_decoded(&db);
  via_decoded.absorb(
      decode_monitor_state(encode_monitor_state(shard_a), &db));
  via_decoded.absorb(
      decode_monitor_state(encode_monitor_state(shard_b), &db));

  expect_same_state(via_original, via_decoded);
}

TEST(MonitorSnapshot, EmptyMonitorRoundTrips) {
  const PassiveMonitor empty;
  const auto bytes = encode_monitor_state(empty);
  const auto decoded = decode_monitor_state(bytes, nullptr);
  EXPECT_EQ(decoded.total_connections(), 0u);
  EXPECT_TRUE(decoded.months().empty());
  EXPECT_EQ(encode_monitor_state(decoded), bytes);
}

TEST(MonitorSnapshot, EveryTruncationIsRejected) {
  tls::fp::FingerprintDatabase db;
  const auto bytes = encode_monitor_state(populated_monitor(&db, 0.2, 9));
  // Every proper prefix must throw (length prefixes and expect_empty leave
  // no silently-accepted truncation point), stepping more coarsely through
  // the large middle to keep the test fast.
  for (std::size_t len = 0; len < bytes.size();
       len += (len < 64 || len + 64 >= bytes.size()) ? 1 : 37) {
    EXPECT_THROW(
        decode_monitor_state({bytes.data(), len}, &db),
        tls::wire::ParseError)
        << "prefix length " << len;
  }
  // Trailing garbage after a complete snapshot is rejected too.
  auto padded = bytes;
  padded.push_back(0x00);
  EXPECT_THROW(decode_monitor_state(padded, &db), tls::wire::ParseError);
}

TEST(MonitorSnapshot, BadEnumKeysAreRejectedNotWritten) {
  // A hostile snapshot claiming an out-of-range enum key must throw before
  // any counter array is indexed (OOB-write hazard).
  const PassiveMonitor empty;
  auto bytes = encode_monitor_state(empty);
  // Version tampering is rejected as unsupported.
  auto wrong_version = bytes;
  wrong_version[3] = 0x7f;  // version u32 big-endian low byte
  EXPECT_THROW(decode_monitor_state(wrong_version, nullptr),
               tls::wire::ParseError);
}

TEST(MonitorSnapshot, RandomCorruptionNeverCrashes) {
  tls::fp::FingerprintDatabase db;
  const auto bytes = encode_monitor_state(populated_monitor(&db, 0.1, 21));
  tls::core::Rng rng(0xc0de);
  for (int i = 0; i < 400; ++i) {
    auto corrupt = bytes;
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      corrupt[rng.below(corrupt.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    // Either the corruption lands in a value (decodes fine) or in
    // structure (throws ParseError); anything else — a crash, a hang, an
    // OOB access under ASan — fails the test run.
    try {
      const auto decoded = decode_monitor_state(corrupt, &db);
      (void)decoded;
    } catch (const tls::wire::ParseError&) {
    }
  }
}

}  // namespace
