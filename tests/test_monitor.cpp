#include <gtest/gtest.h>

#include "clients/catalog.hpp"
#include "notary/monitor.hpp"
#include "population/market.hpp"
#include "population/traffic.hpp"
#include "servers/population.hpp"
#include "wire/server_key_exchange.hpp"

namespace tls::notary {
namespace {

using tls::core::Date;
using tls::core::Month;
using tls::wire::ClientHello;
using tls::wire::ServerHello;

ClientHello client_hello(std::vector<std::uint16_t> suites,
                         bool heartbeat = false) {
  ClientHello ch;
  ch.legacy_version = 0x0303;
  ch.cipher_suites = std::move(suites);
  const std::uint16_t groups[] = {29, 23};
  ch.extensions.push_back(tls::wire::make_supported_groups(groups));
  if (heartbeat) ch.extensions.push_back(tls::wire::make_heartbeat(1));
  return ch;
}

ServerHello server_hello(std::uint16_t suite, std::uint16_t version = 0x0303,
                         bool heartbeat = false) {
  ServerHello sh;
  sh.legacy_version = version;
  sh.cipher_suite = suite;
  if (heartbeat) sh.extensions.push_back(tls::wire::make_heartbeat(1));
  return sh;
}

void feed(PassiveMonitor& mon, Month m, const ClientHello& ch,
          const ServerHello& sh, bool success = true,
          std::span<const std::uint8_t> ske = {}) {
  mon.observe_wire(m, m.first_day(), ch.serialize_record(),
                   sh.serialize_record(), ske, success);
}

TEST(Monitor, CountsNegotiatedClassesAndVersions) {
  PassiveMonitor mon;
  const Month m(2015, 6);
  feed(mon, m, client_hello({0xc02f, 0x0005}), server_hello(0xc02f));
  feed(mon, m, client_hello({0xc013, 0x0005}), server_hello(0x0005));
  const auto* s = mon.month(m);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->total, 2u);
  EXPECT_EQ(s->successful, 2u);
  EXPECT_EQ(s->negotiated_class_count(tls::core::CipherClass::kAead), 1u);
  EXPECT_EQ(s->negotiated_class_count(tls::core::CipherClass::kRc4), 1u);
  EXPECT_EQ(s->negotiated_version_count(0x0303), 2u);
}

TEST(Monitor, AdvertisedFlagsPerConnection) {
  PassiveMonitor mon;
  const Month m(2015, 6);
  feed(mon, m, client_hello({0xc02f, 0x0005, 0x000a, 0x0009, 0x0003, 0x0034,
                             0x0002}),
       server_hello(0xc02f));
  const auto* s = mon.month(m);
  EXPECT_EQ(s->adv_aead, 1u);
  EXPECT_EQ(s->adv_rc4, 1u);
  EXPECT_EQ(s->adv_3des, 1u);
  EXPECT_EQ(s->adv_des, 1u);
  EXPECT_EQ(s->adv_export, 1u);
  EXPECT_EQ(s->adv_anon, 1u);
  EXPECT_EQ(s->adv_null, 1u);
  EXPECT_EQ(s->adv_cbc, 1u);  // 0x000a is CBC-mode
  EXPECT_EQ(s->adv_fs, 1u);
}

TEST(Monitor, FailureCountsAndNoNegotiation) {
  PassiveMonitor mon;
  const Month m(2015, 6);
  mon.observe_wire(m, m.first_day(),
                   client_hello({0xc02f}).serialize_record(), {}, {}, false);
  const auto* s = mon.month(m);
  EXPECT_EQ(s->total, 1u);
  EXPECT_EQ(s->failures, 1u);
  EXPECT_EQ(s->successful, 0u);
  EXPECT_TRUE(s->negotiated_version().empty());
}

TEST(Monitor, MalformedClientHelloCounted) {
  PassiveMonitor mon;
  const std::uint8_t garbage[] = {22, 3, 1, 0, 2, 1, 0};
  mon.observe_wire(Month(2015, 6), Date(2015, 6, 1), garbage, {}, {}, true);
  EXPECT_EQ(mon.malformed_hellos(), 1u);
  EXPECT_EQ(mon.total_connections(), 0u);
}

TEST(Monitor, SpecViolationDetectedFromWire) {
  PassiveMonitor mon;
  const Month m(2015, 6);
  // Server chose 0x0003, never offered.
  feed(mon, m, client_hello({0x0005}), server_hello(0x0003, 0x0301), true);
  const auto* s = mon.month(m);
  EXPECT_EQ(s->spec_violations, 1u);
  EXPECT_EQ(s->negotiated_export, 1u);
}

TEST(Monitor, HeartbeatAccounting) {
  PassiveMonitor mon;
  const Month m(2015, 6);
  feed(mon, m, client_hello({0xc02f}, true), server_hello(0xc02f, 0x0303, true));
  feed(mon, m, client_hello({0xc02f}, true), server_hello(0xc02f));
  feed(mon, m, client_hello({0xc02f}), server_hello(0xc02f));
  const auto* s = mon.month(m);
  EXPECT_EQ(s->heartbeat_offered, 2u);
  EXPECT_EQ(s->heartbeat_negotiated, 1u);
}

TEST(Monitor, Tls13AccountingViaSupportedVersions) {
  PassiveMonitor mon;
  const Month m(2018, 4);
  auto ch = client_hello({0x1301, 0xc02f});
  const std::uint16_t versions[] = {0x7e02, 0x0303};
  ch.extensions.push_back(tls::wire::make_supported_versions_client(versions));
  auto sh = server_hello(0x1301);
  sh.extensions.push_back(tls::wire::make_supported_versions_server(0x7e02));
  sh.extensions.push_back(tls::wire::make_key_share_server(29));
  feed(mon, m, ch, sh);
  const auto* s = mon.month(m);
  EXPECT_EQ(s->adv_tls13, 1u);
  EXPECT_EQ(s->adv_tls13_version_count(0x7e02), 1u);
  EXPECT_EQ(s->negotiated_tls13, 1u);
  EXPECT_EQ(s->negotiated_version_count(0x7e02), 1u);
  EXPECT_EQ(s->negotiated_group_count(29), 1u);
}

TEST(Monitor, CurveFromServerKeyExchange) {
  PassiveMonitor mon;
  const Month m(2016, 6);
  const auto ske =
      tls::wire::EcdheServerKeyExchange::stub(24).serialize_record(0x0303);
  feed(mon, m, client_hello({0xc02f}), server_hello(0xc02f), true, ske);
  const auto* s = mon.month(m);
  EXPECT_EQ(s->negotiated_group_count(24), 1u);
}

TEST(Monitor, FingerprintsOnlyAfterFeatureIntroduction) {
  PassiveMonitor mon;
  feed(mon, Month(2013, 6), client_hello({0xc02f}), server_hello(0xc02f));
  EXPECT_EQ(mon.fingerprintable_connections(), 0u);
  EXPECT_EQ(mon.durations().size(), 0u);
  feed(mon, Month(2015, 6), client_hello({0xc02f}), server_hello(0xc02f));
  EXPECT_EQ(mon.fingerprintable_connections(), 1u);
  EXPECT_EQ(mon.durations().size(), 1u);
  EXPECT_EQ(PassiveMonitor::fp_start(), Month(2014, 10));
}

TEST(Monitor, FingerprintFlagsPerMonth) {
  PassiveMonitor mon;
  const Month m(2016, 2);
  feed(mon, m, client_hello({0xc02f, 0x0005}), server_hello(0xc02f));
  feed(mon, m, client_hello({0x002f}), server_hello(0x002f));
  const auto* s = mon.month(m);
  ASSERT_EQ(s->fingerprints.size(), 2u);
  int rc4_fps = 0, aead_fps = 0, cbc_fps = 0;
  for (const auto& [hash, flags] : s->fingerprints) {
    rc4_fps += (flags & kFpRc4) != 0;
    aead_fps += (flags & kFpAead) != 0;
    cbc_fps += (flags & kFpCbc) != 0;
  }
  EXPECT_EQ(rc4_fps, 1);
  EXPECT_EQ(aead_fps, 1);
  EXPECT_EQ(cbc_fps, 1);
}

TEST(Monitor, LabeledCoverageByClass) {
  tls::fp::FingerprintDatabase db;
  const auto ch = client_hello({0xc02f, 0x0005});
  const auto hash =
      tls::fp::extract_fingerprint(ClientHello::parse_record(ch.serialize_record()))
          .hash();
  db.add(hash, tls::fp::SoftwareLabel{"TestApp",
                                      tls::fp::SoftwareClass::kBrowser, "1",
                                      "1"});
  PassiveMonitor mon(&db);
  feed(mon, Month(2016, 1), ch, server_hello(0xc02f));
  feed(mon, Month(2016, 1), client_hello({0x002f}), server_hello(0x002f));
  EXPECT_EQ(mon.labeled_connections(), 1u);
  EXPECT_EQ(mon.labeled_connections_by_class().at(
                tls::fp::SoftwareClass::kBrowser),
            1u);
  EXPECT_EQ(mon.fingerprintable_connections(), 2u);
}

TEST(Monitor, Sslv2Accounting) {
  PassiveMonitor mon;
  mon.observe_sslv2(Month(2018, 2));
  const auto* s = mon.month(Month(2018, 2));
  EXPECT_EQ(s->sslv2_connections, 1u);
  EXPECT_EQ(s->negotiated_version_count(0x0002), 1u);
  EXPECT_EQ(s->successful, 1u);
}

TEST(Monitor, ResumptionDetectedFromSessionIdEcho) {
  PassiveMonitor mon;
  const Month m(2015, 6);
  auto ch = client_hello({0x002f});
  ch.session_id.assign(32, 0x33);
  auto sh = server_hello(0x002f, 0x0303);
  sh.session_id = ch.session_id;
  feed(mon, m, ch, sh);
  // Fresh server id: not resumed.
  auto sh2 = server_hello(0x002f, 0x0303);
  sh2.session_id.assign(32, 0x44);
  feed(mon, m, ch, sh2);
  // TLS 1.3 compat echo: not resumed.
  auto ch13 = client_hello({0x1301});
  ch13.session_id.assign(32, 0x55);
  const std::uint16_t versions[] = {0x7e02, 0x0303};
  ch13.extensions.push_back(
      tls::wire::make_supported_versions_client(versions));
  auto sh13 = server_hello(0x1301);
  sh13.session_id = ch13.session_id;
  sh13.extensions.push_back(
      tls::wire::make_supported_versions_server(0x7e02));
  feed(mon, m, ch13, sh13);
  EXPECT_EQ(mon.month(m)->resumed, 1u);
}

TEST(Monitor, RelativePositions) {
  PassiveMonitor mon;
  const Month m(2016, 6);
  // AEAD at index 0 of 4, RC4 at 2 of 4, 3DES at 3 of 4.
  feed(mon, m, client_hello({0xc02f, 0x002f, 0x0005, 0x000a}),
       server_hello(0xc02f));
  const auto* s = mon.month(m);
  EXPECT_DOUBLE_EQ(s->pos_aead.average(), 0.0);
  EXPECT_DOUBLE_EQ(s->pos_cbc.average(), 0.25);
  EXPECT_DOUBLE_EQ(s->pos_rc4.average(), 0.5);
  EXPECT_DOUBLE_EQ(s->pos_3des.average(), 0.75);
  EXPECT_EQ(s->pos_des.n, 0u);
}

TEST(Monitor, PositionSkipsGreaseAndScsv) {
  PassiveMonitor mon;
  const Month m(2016, 6);
  feed(mon, m,
       client_hello({0x8a8a /*GREASE*/, 0xc02f, 0x00ff /*SCSV*/, 0x0005}),
       server_hello(0xc02f));
  const auto* s = mon.month(m);
  // Effective list: [c02f, 0005] -> AEAD at 0/2, RC4 at 1/2.
  EXPECT_DOUBLE_EQ(s->pos_aead.average(), 0.0);
  EXPECT_DOUBLE_EQ(s->pos_rc4.average(), 0.5);
}

// ---- struct fast path vs byte path ----

void expect_stats_equal(const PassiveMonitor& a, const PassiveMonitor& b) {
  EXPECT_EQ(a.total_connections(), b.total_connections());
  EXPECT_EQ(a.fingerprintable_connections(), b.fingerprintable_connections());
  EXPECT_EQ(a.labeled_connections(), b.labeled_connections());
  EXPECT_EQ(a.errors().total(), b.errors().total());
  EXPECT_EQ(a.quarantine().total_pushed(), b.quarantine().total_pushed());
  ASSERT_EQ(a.months().size(), b.months().size());
  for (const auto& [m, sa] : a.months()) {
    const auto* sb = b.month(m);
    ASSERT_NE(sb, nullptr) << m.to_string();
    EXPECT_EQ(sa.total, sb->total) << m.to_string();
    EXPECT_EQ(sa.successful, sb->successful) << m.to_string();
    EXPECT_EQ(sa.failures, sb->failures) << m.to_string();
    EXPECT_EQ(sa.quarantined, sb->quarantined) << m.to_string();
    EXPECT_EQ(sa.spec_violations, sb->spec_violations) << m.to_string();
    EXPECT_EQ(sa.resumed, sb->resumed) << m.to_string();
    EXPECT_EQ(sa.adv_aead, sb->adv_aead) << m.to_string();
    EXPECT_EQ(sa.adv_rc4, sb->adv_rc4) << m.to_string();
    EXPECT_EQ(sa.adv_tls13, sb->adv_tls13) << m.to_string();
    EXPECT_EQ(sa.heartbeat_negotiated, sb->heartbeat_negotiated)
        << m.to_string();
    EXPECT_EQ(sa.parse_errors(), sb->parse_errors()) << m.to_string();
    EXPECT_EQ(sa.negotiated_version(), sb->negotiated_version())
        << m.to_string();
    EXPECT_EQ(sa.negotiated_class(), sb->negotiated_class()) << m.to_string();
    EXPECT_EQ(sa.negotiated_kex(), sb->negotiated_kex()) << m.to_string();
    EXPECT_EQ(sa.negotiated_aead(), sb->negotiated_aead()) << m.to_string();
    EXPECT_EQ(sa.negotiated_group(), sb->negotiated_group()) << m.to_string();
    EXPECT_EQ(sa.adv_tls13_versions(), sb->adv_tls13_versions())
        << m.to_string();
    EXPECT_EQ(sa.alerts(), sb->alerts()) << m.to_string();
    EXPECT_EQ(sa.fingerprints, sb->fingerprints) << m.to_string();
    EXPECT_EQ(sa.pos_aead.sum, sb->pos_aead.sum) << m.to_string();
    EXPECT_EQ(sa.pos_aead.n, sb->pos_aead.n) << m.to_string();
    EXPECT_EQ(sa.pos_cbc.sum, sb->pos_cbc.sum) << m.to_string();
  }
}

TEST(FastObserve, ByteIdenticalToSerializeParsePath) {
  // Satellite proof for the documented fast path: the struct-reuse route
  // and the serialize→parse route must produce identical monitor state on
  // a real generated stream (resumption ids, fallback dances, TLS 1.3,
  // failed handshakes, SSLv2 — everything the generator emits).
  const auto catalog = tls::clients::Catalog::core_only();
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);

  PassiveMonitor fast, slow;
  fast.set_fast_observe(true);
  slow.set_fast_observe(false);

  for (auto* mon : {&fast, &slow}) {
    tls::population::TrafficGenerator gen(market, servers, 4242);
    gen.generate_range({Month(2014, 8), Month(2015, 2)}, 600,
                       [&](const tls::population::ConnectionEvent& ev) {
                         mon->observe(ev);
                       });
  }
  EXPECT_GT(fast.total_connections(), 0u);
  expect_stats_equal(slow, fast);
}

TEST(FastObserve, SpanEntryPointMatchesPerEventObserve) {
  const auto catalog = tls::clients::Catalog::core_only();
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);

  PassiveMonitor one_by_one, spans;
  tls::population::TrafficGenerator gen_a(market, servers, 77);
  gen_a.generate_month(Month(2015, 6), 500,
                       [&](const tls::population::ConnectionEvent& ev) {
                         one_by_one.observe(ev);
                       });
  tls::population::TrafficGenerator gen_b(market, servers, 77);
  gen_b.generate_month_batched(
      Month(2015, 6), 500, 64,
      [&](std::span<const tls::population::ConnectionEvent> events) {
        spans.observe_span(events);
      });
  expect_stats_equal(one_by_one, spans);
}

}  // namespace
}  // namespace tls::notary
