// Cross-product property test: every catalog client version against every
// server segment, at several points in time. Whatever happens, the
// invariants of a correct negotiation engine must hold — this is the net
// that catches registry/catalog/negotiation drift as the models evolve.
#include <gtest/gtest.h>

#include <algorithm>

#include "clients/catalog.hpp"
#include "handshake/negotiate.hpp"
#include "servers/population.hpp"
#include "tlscore/grease.hpp"
#include "tlscore/named_groups.hpp"
#include "tlscore/version.hpp"

namespace {

using tls::core::find_cipher_suite;
using tls::core::is_tls13_wire;

TEST(CompatMatrix, AllClientServerPairsSatisfyInvariants) {
  const auto catalog = tls::clients::Catalog::core_only();
  const auto servers = tls::servers::ServerPopulation::standard();
  tls::core::Rng rng(2024);

  std::size_t pairs = 0, successes = 0;
  for (const auto& profile : catalog.profiles()) {
    for (const auto& cfg : profile.versions) {
      const auto hello = tls::clients::make_client_hello(cfg, rng, "m.test");
      for (const auto& seg : servers.segments()) {
        tls::handshake::NegotiateOptions opts;
        opts.accept_unoffered_suite = profile.name == "Interwise";
        const auto r =
            tls::handshake::negotiate(hello, seg.config, rng, opts);
        ++pairs;
        if (!r.success) {
          // Failures must carry a reason and (except version failures)
          // usually a ServerHello for the monitor to inspect.
          EXPECT_NE(r.failure, tls::handshake::FailureReason::kNone)
              << profile.name << " vs " << seg.name;
          continue;
        }
        ++successes;
        ASSERT_TRUE(r.server_hello.has_value())
            << profile.name << " vs " << seg.name;
        const auto suite = r.negotiated_cipher;

        // 1. The chosen suite is real and never GREASE/SCSV.
        const auto* info = find_cipher_suite(suite);
        ASSERT_NE(info, nullptr) << profile.name << " vs " << seg.name;
        EXPECT_FALSE(info->scsv);
        EXPECT_FALSE(tls::core::is_grease(suite));

        // 2. Unless the server is a quirk machine, the suite was offered by
        //    the client AND is in the server's preference list.
        if (!r.spec_violation) {
          EXPECT_NE(std::find(hello.cipher_suites.begin(),
                              hello.cipher_suites.end(), suite),
                    hello.cipher_suites.end())
              << profile.name << " vs " << seg.name;
          EXPECT_TRUE(seg.config.supports_suite(suite))
              << profile.name << " vs " << seg.name;
        }

        // 3. Version is within the server's range (or a TLS 1.3 variant the
        //    server lists), and never above what the client offered.
        const auto v = r.negotiated_version;
        if (is_tls13_wire(v)) {
          EXPECT_NE(std::find(seg.config.tls13_versions.begin(),
                              seg.config.tls13_versions.end(), v),
                    seg.config.tls13_versions.end())
              << profile.name << " vs " << seg.name;
        } else {
          EXPECT_GE(v, seg.config.min_version);
          EXPECT_LE(v, seg.config.max_version);
          EXPECT_LE(v, hello.legacy_version);
        }

        // 4. The suite is usable at the negotiated version.
        EXPECT_TRUE(tls::handshake::suite_allowed_at_version(*info, v))
            << info->name << " at " << std::hex << v;

        // 5. EC key exchanges always carry a mutually-supported group.
        if (r.negotiated_group != 0) {
          EXPECT_NE(tls::core::find_named_group(r.negotiated_group), nullptr);
          EXPECT_NE(std::find(seg.config.groups.begin(),
                              seg.config.groups.end(), r.negotiated_group),
                    seg.config.groups.end())
              << profile.name << " vs " << seg.name;
        }

        // 6. The ServerHello re-parses from its own bytes.
        const auto reparsed = tls::wire::ServerHello::parse_record(
            r.server_hello->serialize_record());
        EXPECT_EQ(reparsed.cipher_suite, suite);
      }
    }
  }
  // Sanity on the matrix size and that most pairings work.
  EXPECT_GT(pairs, 2000u);
  EXPECT_GT(static_cast<double>(successes) / static_cast<double>(pairs), 0.6);
}

TEST(CompatMatrix, EveryClientConnectsSomewhereInItsEra) {
  // Each config, in the month after release, must successfully negotiate
  // with at least one general-web segment of that month.
  const auto catalog = tls::clients::Catalog::core_only();
  const auto servers = tls::servers::ServerPopulation::standard();
  tls::core::Rng rng(7);
  for (const auto& profile : catalog.profiles()) {
    // Destination-routed specialists talk to their own segments.
    if (profile.name == "GridFTP" || profile.name == "Nagios NRPE" ||
        profile.name == "Nagios legacy check" ||
        profile.name == "Interwise" || profile.name == "Splunk Forwarder") {
      continue;
    }
    for (const auto& cfg : profile.versions) {
      const auto hello = tls::clients::make_client_hello(cfg, rng, "e.test");
      const tls::core::Month era =
          tls::core::Month(cfg.release) + 1;
      bool connected = false;
      for (const auto& seg : servers.segments()) {
        if (seg.special_destination) continue;
        if (seg.traffic_share.at(era) <= 0) continue;
        if (tls::handshake::negotiate(hello, seg.config, rng).success) {
          connected = true;
          break;
        }
      }
      EXPECT_TRUE(connected) << profile.name << " " << cfg.version_label;
    }
  }
}

}  // namespace
