#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "clients/catalog.hpp"
#include "clients/suite_pools.hpp"
#include "fingerprint/fingerprint.hpp"
#include "tlscore/grease.hpp"

namespace tls::clients {
namespace {

using tls::core::Date;

TEST(SuitePools, SizesMatchPaperMaxima) {
  EXPECT_EQ(cbc_pool().size(), 29u);   // Table 3's largest count
  EXPECT_EQ(rc4_pool().size(), 7u);    // Table 4 (Safari's 7)
  EXPECT_EQ(tdes_pool().size(), 8u);   // Table 5's largest count
  EXPECT_GE(aead_pool().size(), 10u);
}

TEST(SuitePools, ComposeDeduplicates) {
  const auto v = compose({prefix(cbc_pool(), 5), prefix(cbc_pool(), 9)});
  EXPECT_EQ(v.size(), 9u);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(),
                                  cbc_pool().begin(), cbc_pool().begin() + 9));
}

TEST(SuitePools, PrefixOutOfRangeThrows) {
  EXPECT_THROW(prefix(rc4_pool(), 99), std::out_of_range);
}

TEST(Profile, ConfigAtPicksLatestReleased) {
  const auto catalog = Catalog::core_only();
  const auto* chrome = catalog.find("Chrome");
  ASSERT_NE(chrome, nullptr);
  EXPECT_EQ(chrome->config_at(Date(2013, 9, 1))->version_label, "29");
  EXPECT_EQ(chrome->config_at(Date(2013, 11, 12))->version_label, "31");
  EXPECT_EQ(chrome->config_at(Date(2018, 4, 1))->version_label, "65");
  // Before the first release there is no config.
  ClientProfile future{"x", tls::fp::SoftwareClass::kBrowser, {}};
  ClientConfig cfg;
  cfg.release = Date(2020, 1, 1);
  future.versions.push_back(cfg);
  EXPECT_EQ(future.config_at(Date(2015, 1, 1)), nullptr);
}

TEST(Profile, VersionsAreChronological) {
  const auto catalog = Catalog::core_only();
  for (const auto& p : catalog.profiles()) {
    for (std::size_t i = 1; i < p.versions.size(); ++i) {
      EXPECT_LE(p.versions[i - 1].release, p.versions[i].release)
          << p.name << " " << p.versions[i].version_label;
    }
  }
}

TEST(Profile, AllConfigSuitesAreRegistered) {
  const auto catalog = Catalog::core_only();
  for (const auto& p : catalog.profiles()) {
    for (const auto& cfg : p.versions) {
      for (const auto id : cfg.cipher_suites) {
        EXPECT_NE(tls::core::find_cipher_suite(id), nullptr)
            << p.name << " " << cfg.version_label << " suite " << id;
      }
      EXPECT_FALSE(cfg.cipher_suites.empty()) << p.name;
    }
  }
}

TEST(MakeHello, SniIncludedAndSkipped) {
  const auto catalog = Catalog::core_only();
  const auto* cfg = catalog.find("Chrome")->config_at(Date(2016, 1, 1));
  tls::core::Rng rng(3);
  const auto with = make_client_hello(*cfg, rng, "host.test");
  EXPECT_EQ(*with.server_name(), "host.test");
  const auto without = make_client_hello(*cfg, rng, "");
  EXPECT_FALSE(without.server_name().has_value());
}

TEST(MakeHello, GreaseInjection) {
  const auto catalog = Catalog::core_only();
  // Chrome 55+ GREASEs.
  const auto* cfg = catalog.find("Chrome")->config_at(Date(2017, 2, 1));
  ASSERT_TRUE(cfg->grease);
  tls::core::Rng rng(5);
  const auto hello = make_client_hello(*cfg, rng, "g.test");
  EXPECT_TRUE(tls::core::is_grease(hello.cipher_suites.front()));
  EXPECT_TRUE(tls::core::is_grease(hello.extensions.front().type));
  EXPECT_TRUE(tls::core::is_grease(hello.extensions.back().type));
  const auto groups = hello.supported_groups();
  ASSERT_TRUE(groups.has_value());
  EXPECT_TRUE(tls::core::is_grease(groups->front()));
}

TEST(MakeHello, GreaseDoesNotChangeFingerprint) {
  const auto catalog = Catalog::core_only();
  const auto* cfg = catalog.find("Chrome")->config_at(Date(2017, 2, 1));
  tls::core::Rng r1(1), r2(999);
  const auto a = tls::fp::extract_fingerprint(make_client_hello(*cfg, r1, "x"));
  const auto b = tls::fp::extract_fingerprint(make_client_hello(*cfg, r2, "x"));
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(MakeHello, ShufflerPermutesButPreservesSet) {
  const auto catalog = Catalog::core_only();
  const auto* bot = catalog.find("ShuffleBot");
  ASSERT_NE(bot, nullptr);
  const auto& cfg = bot->versions.front();
  ASSERT_TRUE(cfg.randomizes_cipher_order);
  tls::core::Rng rng(8);
  const auto a = make_client_hello(cfg, rng, "s.test");
  const auto b = make_client_hello(cfg, rng, "s.test");
  EXPECT_TRUE(std::is_permutation(a.cipher_suites.begin(),
                                  a.cipher_suites.end(),
                                  b.cipher_suites.begin()));
  EXPECT_NE(a.cipher_suites, b.cipher_suites);  // overwhelmingly likely
}

TEST(MakeHello, Tls13ClientCarriesMandatoryExtensions) {
  const auto catalog = Catalog::core_only();
  const auto* cfg = catalog.find("Chrome")->config_at(Date(2018, 4, 1));
  ASSERT_FALSE(cfg->supported_versions.empty());
  tls::core::Rng rng(4);
  const auto hello = make_client_hello(*cfg, rng, "t.test");
  EXPECT_TRUE(hello.has_extension(tls::core::ExtensionType::kSupportedVersions));
  EXPECT_TRUE(hello.has_extension(tls::core::ExtensionType::kKeyShare));
  EXPECT_EQ(hello.session_id.size(), 32u);  // middlebox compatibility
  EXPECT_EQ(hello.max_offered_version(), 0x7e02);
}

// ---- paper table invariants, parameterized ----

struct TableRow {
  const char* browser;
  const char* version;
  int cbc;
  int rc4;
  int tdes;
};

// Without this gtest prints the row's raw bytes, pointers and padding
// included, so the listed test names change from one process to the next.
void PrintTo(const TableRow& row, std::ostream* os) {
  *os << row.browser << " " << row.version;
}

class BrowserTableCounts : public ::testing::TestWithParam<TableRow> {};

TEST_P(BrowserTableCounts, MatchesPaper) {
  const auto& row = GetParam();
  const auto catalog = Catalog::core_only();
  const auto* p = catalog.find(row.browser);
  ASSERT_NE(p, nullptr);
  const ClientConfig* cfg = nullptr;
  for (const auto& c : p->versions) {
    if (c.version_label == row.version) cfg = &c;
  }
  ASSERT_NE(cfg, nullptr) << row.browser << " " << row.version;
  if (row.cbc >= 0) EXPECT_EQ(static_cast<int>(cfg->count_cbc()), row.cbc);
  if (row.rc4 >= 0) EXPECT_EQ(static_cast<int>(cfg->count_rc4()), row.rc4);
  if (row.tdes >= 0) EXPECT_EQ(static_cast<int>(cfg->count_3des()), row.tdes);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTables345, BrowserTableCounts,
    ::testing::Values(TableRow{"Chrome", "29", 16, 4, 1},
                      TableRow{"Chrome", "31", 10, 4, 1},
                      TableRow{"Chrome", "41", 9, 4, -1},
                      TableRow{"Chrome", "43", 9, 0, -1},
                      TableRow{"Chrome", "49", 7, 0, -1},
                      TableRow{"Chrome", "56", 5, 0, -1},
                      TableRow{"Firefox", "27", 17, 4, 3},
                      TableRow{"Firefox", "33", 10, 4, 1},
                      TableRow{"Firefox", "37", 9, 4, -1},
                      TableRow{"Firefox", "44", 9, 0, -1},
                      TableRow{"Opera", "16", 16, 4, 1},
                      TableRow{"Opera", "18", 10, 4, -1},
                      TableRow{"Opera", "30", 7, 0, -1},
                      TableRow{"Opera", "43", 5, 0, -1},
                      TableRow{"Safari", "6", -1, 6, -1},
                      TableRow{"Safari", "9", 15, 4, 3},
                      TableRow{"Safari", "10", -1, 0, -1},
                      TableRow{"Safari", "10.1", 12, 0, -1},
                      TableRow{"IE/Edge", "13", -1, 0, -1}),
    [](const ::testing::TestParamInfo<TableRow>& info) {
      std::string n = std::string(info.param.browser) + "_" +
                      info.param.version;
      for (auto& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

TEST(Catalog, StandardMatchesTable2Counts) {
  const auto& catalog = standard_catalog();
  tls::fp::FingerprintDatabase db;
  tls::core::Rng rng(7);
  for (const auto& p : catalog.profiles()) {
    for (const auto& cfg : p.versions) {
      if (cfg.randomizes_cipher_order) continue;
      const auto hello = make_client_hello(cfg, rng, "db.test");
      db.add(tls::fp::extract_fingerprint(hello),
             tls::fp::SoftwareLabel{p.name, p.cls, cfg.version_label,
                                    cfg.version_label});
    }
  }
  const auto counts = db.count_by_class();
  using SC = tls::fp::SoftwareClass;
  EXPECT_EQ(counts.at(SC::kLibrary), 700u);
  EXPECT_EQ(counts.at(SC::kBrowser), 193u);
  EXPECT_EQ(counts.at(SC::kOsTool), 13u);
  EXPECT_EQ(counts.at(SC::kMobileApp), 489u);
  EXPECT_EQ(counts.at(SC::kDevTool), 12u);
  EXPECT_EQ(counts.at(SC::kAntivirus), 44u);
  EXPECT_EQ(counts.at(SC::kCloudStorage), 29u);
  EXPECT_EQ(counts.at(SC::kEmail), 33u);
  EXPECT_EQ(counts.at(SC::kMalware), 49u);
}

TEST(Catalog, HeartbleedPatchDoesNotChangeFingerprint) {
  // OpenSSL 1.0.1 vs 1.0.1g: identical ClientHello bytes (§5.4 — passive
  // observation cannot tell patched from vulnerable).
  const auto catalog = Catalog::core_only();
  const auto* openssl = catalog.find("OpenSSL");
  const ClientConfig* v101 = nullptr;
  const ClientConfig* v101g = nullptr;
  for (const auto& c : openssl->versions) {
    if (c.version_label == "1.0.1") v101 = &c;
    if (c.version_label == "1.0.1g") v101g = &c;
  }
  ASSERT_NE(v101, nullptr);
  ASSERT_NE(v101g, nullptr);
  tls::core::Rng rng(2);
  EXPECT_EQ(tls::fp::extract_fingerprint(make_client_hello(*v101, rng, "x")).hash(),
            tls::fp::extract_fingerprint(make_client_hello(*v101g, rng, "x")).hash());
}

TEST(Catalog, FindIsExact) {
  const auto catalog = Catalog::core_only();
  EXPECT_NE(catalog.find("Chrome"), nullptr);
  EXPECT_EQ(catalog.find("chrome"), nullptr);
  EXPECT_EQ(catalog.find("NoSuch"), nullptr);
}

}  // namespace
}  // namespace tls::clients
