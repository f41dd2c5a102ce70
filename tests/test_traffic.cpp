#include <gtest/gtest.h>

#include "population/traffic.hpp"

namespace tls::population {
namespace {

using tls::core::Month;

struct Fixture {
  tls::clients::Catalog catalog = tls::clients::Catalog::core_only();
  tls::servers::ServerPopulation servers =
      tls::servers::ServerPopulation::standard();
  MarketModel market = MarketModel::standard(catalog);
};

TEST(Traffic, GeneratesRequestedCount) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 1);
  int count = 0;
  gen.generate_month(Month(2015, 6), 500,
                     [&](const ConnectionEvent&) { ++count; });
  EXPECT_EQ(count, 500);
}

TEST(Traffic, DeterministicForSameSeed) {
  Fixture f;
  const auto run = [&](std::uint64_t seed) {
    TrafficGenerator gen(f.market, f.servers, seed);
    std::uint64_t acc = 0;
    gen.generate_month(Month(2015, 6), 300, [&](const ConnectionEvent& ev) {
      acc = acc * 31 + ev.result.negotiated_cipher + ev.hello.cipher_suites.size();
    });
    return acc;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(Traffic, SpecialClientsReachTheirDestinations) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 3);
  bool saw_grid_mismatch = false;
  int grid_events = 0;
  gen.generate_range({Month(2014, 1), Month(2014, 6)}, 2000,
                     [&](const ConnectionEvent& ev) {
                       if (ev.client->name == "GridFTP") {
                         ++grid_events;
                         if (!ev.server->name.starts_with("grid")) {
                           saw_grid_mismatch = true;
                         }
                       } else {
                         if (ev.server->name.starts_with("grid")) {
                           saw_grid_mismatch = true;
                         }
                       }
                     });
  EXPECT_GT(grid_events, 0);
  EXPECT_FALSE(saw_grid_mismatch);
}

TEST(Traffic, GridNegotiatesNullCiphers) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 4);
  int grid = 0, null_negotiated = 0;
  gen.generate_month(Month(2013, 6), 5000, [&](const ConnectionEvent& ev) {
    if (ev.client->name != "GridFTP" || !ev.result.success) return;
    ++grid;
    const auto* s = tls::core::find_cipher_suite(ev.result.negotiated_cipher);
    null_negotiated += s != nullptr && tls::core::is_null_cipher(*s);
  });
  ASSERT_GT(grid, 10);
  // GRID endpoints prefer NULL; nearly all GRID connections use it (§6.1).
  EXPECT_GT(static_cast<double>(null_negotiated) / grid, 0.95);
}

TEST(Traffic, InterwiseSessionsCompleteDespiteViolation) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 5);
  int interwise = 0, violations = 0, successes = 0;
  gen.generate_range({Month(2013, 1), Month(2014, 12)}, 3000,
                     [&](const ConnectionEvent& ev) {
                       if (ev.client->name != "Interwise") return;
                       ++interwise;
                       violations += ev.result.spec_violation;
                       successes += ev.result.success;
                     });
  ASSERT_GT(interwise, 0);
  EXPECT_EQ(violations, interwise);
  EXPECT_EQ(successes, interwise);
}

TEST(Traffic, SslV2OnlyFromNagios) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 6);
  int sslv2 = 0;
  gen.generate_range({Month(2017, 1), Month(2018, 4)}, 4000,
                     [&](const ConnectionEvent& ev) {
                       if (ev.sslv2) {
                         ++sslv2;
                         EXPECT_EQ(ev.client->name, "Nagios NRPE");
                       }
                     });
  EXPECT_GT(sslv2, 0);
}

TEST(Traffic, FallbackTriggersForLegacyServers) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 7);
  int fallbacks = 0, fallback_success = 0;
  gen.generate_month(Month(2013, 6), 20000, [&](const ConnectionEvent& ev) {
    if (!ev.used_fallback) return;
    ++fallbacks;
    fallback_success += ev.result.success;
    // Fallback only happens toward servers older than the client.
    EXPECT_LT(ev.server->config.max_version, 0x0303);
  });
  EXPECT_GT(fallbacks, 0);
  EXPECT_EQ(fallbacks, fallback_success);
}

TEST(Traffic, FallbackScsvAppearsAfterRfc7507) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 8);
  bool early_scsv = false;
  bool late_scsv = false;
  const auto has_scsv = [](const ConnectionEvent& ev) {
    return std::find(ev.hello.cipher_suites.begin(),
                     ev.hello.cipher_suites.end(),
                     tls::core::suites::TLS_FALLBACK_SCSV) !=
           ev.hello.cipher_suites.end();
  };
  gen.generate_month(Month(2013, 6), 20000, [&](const ConnectionEvent& ev) {
    if (ev.used_fallback && has_scsv(ev)) early_scsv = true;
  });
  gen.generate_month(Month(2015, 9), 20000, [&](const ConnectionEvent& ev) {
    if (ev.used_fallback && has_scsv(ev)) late_scsv = true;
  });
  EXPECT_FALSE(early_scsv);
  EXPECT_TRUE(late_scsv);
}

// The GenCache template fast path must emit events field-identical to the
// legacy build-every-hello path, from the same seed, across the 2015-04
// FALLBACK_SCSV boundary (the fallback leg's SCSV branch switches there),
// at both ends of the study window and in the TLS 1.3-draft era.
// The full catalog exercises the GREASE/shuffle bypass configs too.
TEST(Traffic, GenCacheEventsMatchLegacyFieldByField) {
  tls::clients::Catalog catalog = tls::clients::Catalog::standard();
  tls::servers::ServerPopulation servers =
      tls::servers::ServerPopulation::standard();
  MarketModel market = MarketModel::standard(catalog);
  for (const Month m :
       {Month(2012, 2), Month(2015, 2), Month(2015, 3), Month(2015, 4),
        Month(2015, 9), Month(2017, 9), Month(2018, 4)}) {
    SCOPED_TRACE(m.to_string());
    TrafficGenerator fast(market, servers, 77);
    TrafficGenerator legacy(market, servers, 77);
    fast.set_gen_cache(true);
    legacy.set_gen_cache(false);
    std::vector<ConnectionEvent> a;
    std::vector<ConnectionEvent> b;
    fast.generate_month(m, 1500,
                        [&](const ConnectionEvent& ev) { a.push_back(ev); });
    legacy.generate_month(m, 1500,
                          [&](const ConnectionEvent& ev) { b.push_back(ev); });
    ASSERT_EQ(a.size(), b.size());
    bool saw_fast_record = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const ConnectionEvent& f = a[i];
      const ConnectionEvent& l = b[i];
      ASSERT_EQ(f.month.index(), l.month.index()) << i;
      ASSERT_EQ(f.day.year(), l.day.year()) << i;
      ASSERT_EQ(f.day.month(), l.day.month()) << i;
      ASSERT_EQ(f.day.day(), l.day.day()) << i;
      ASSERT_EQ(f.client, l.client) << i;
      ASSERT_EQ(f.config, l.config) << i;
      ASSERT_EQ(f.server, l.server) << i;
      ASSERT_EQ(f.sslv2, l.sslv2) << i;
      ASSERT_EQ(f.used_fallback, l.used_fallback) << i;
      if (f.sslv2) continue;  // hello/result unspecified for SSLv2 events
      ASSERT_TRUE(f.hello == l.hello) << i;
      ASSERT_EQ(f.result.success, l.result.success) << i;
      ASSERT_EQ(f.result.failure, l.result.failure) << i;
      ASSERT_EQ(f.result.server_hello, l.result.server_hello) << i;
      ASSERT_EQ(f.result.negotiated_version, l.result.negotiated_version)
          << i;
      ASSERT_EQ(f.result.negotiated_cipher, l.result.negotiated_cipher) << i;
      ASSERT_EQ(f.result.negotiated_group, l.result.negotiated_group) << i;
      ASSERT_EQ(f.result.spec_violation, l.result.spec_violation) << i;
      ASSERT_EQ(f.result.heartbeat_negotiated, l.result.heartbeat_negotiated)
          << i;
      ASSERT_EQ(f.result.resumed, l.result.resumed) << i;
      // Legacy path never pre-serializes; the fast path's bytes must match
      // a from-scratch serialization of the (identical) hello.
      ASSERT_TRUE(l.client_record.empty()) << i;
      if (!f.client_record.empty()) {
        saw_fast_record = true;
        ASSERT_EQ(f.client_record, f.hello.serialize_record()) << i;
      }
    }
    EXPECT_TRUE(saw_fast_record);
  }
}

TEST(Traffic, EventDayWithinMonth) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 9);
  gen.generate_month(Month(2015, 2), 1000, [&](const ConnectionEvent& ev) {
    EXPECT_EQ(ev.day.year(), 2015);
    EXPECT_EQ(ev.day.month(), 2);
    EXPECT_GE(ev.day.day(), 1);
    EXPECT_LE(ev.day.day(), 28);
  });
}

}  // namespace
}  // namespace tls::population
