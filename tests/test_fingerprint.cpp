#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "clients/catalog.hpp"
#include "core/study.hpp"
#include "fingerprint/fingerprint.hpp"
#include "fingerprint/md5.hpp"
#include "notary/features.hpp"
#include "tlscore/grease.hpp"

namespace tls::fp {
namespace {

tls::wire::ClientHello base_hello() {
  tls::wire::ClientHello ch;
  ch.legacy_version = 0x0303;
  ch.cipher_suites = {0xc02f, 0x009c, 0x0035};
  ch.extensions.push_back(tls::wire::make_server_name("fp.test"));
  const std::uint16_t groups[] = {29, 23};
  ch.extensions.push_back(tls::wire::make_supported_groups(groups));
  const std::uint8_t formats[] = {0};
  ch.extensions.push_back(tls::wire::make_ec_point_formats(formats));
  return ch;
}

TEST(Fingerprint, CanonicalFormat) {
  const auto fp = extract_fingerprint(base_hello());
  EXPECT_EQ(fp.canonical(), "49199-156-53,0-10-11,29-23,0");
}

TEST(Fingerprint, HashIsMd5OfCanonical) {
  const auto fp = extract_fingerprint(base_hello());
  EXPECT_EQ(fp.hash(), Md5::hex(fp.canonical()));
  EXPECT_EQ(fp.hash().size(), 32u);
}

// RFC 1321 §3.1-3.2 padding audit, pinned to digests computed with an
// independent MD5 implementation (GNU coreutils md5sum). 55/56/57 bytes
// straddle the is-there-room-for-the-length boundary (len % 64 == 56 forces
// a second padding block); 63/64/65 straddle the block boundary itself; the
// 200-byte and repeated-"abc" cases cover multi-block compression.
TEST(Fingerprint, Md5PaddingBoundariesMatchIndependentOracle) {
  const auto hex_of_xs = [](std::size_t n) {
    return Md5::hex(std::string(n, 'x'));
  };
  EXPECT_EQ(hex_of_xs(55), "04364420e25c512fd958a70738aa8f72");
  EXPECT_EQ(hex_of_xs(56), "668a72d5ba17f08e62dabcafad6db14b");
  EXPECT_EQ(hex_of_xs(57), "693037871c4a9d3d8685018905cb530a");
  EXPECT_EQ(hex_of_xs(63), "7dc2ca208106a2f703567bdff99d8981");
  EXPECT_EQ(hex_of_xs(64), "c1bb4f81d892b2d57947682aeb252456");
  EXPECT_EQ(hex_of_xs(65), "1bc932052302d074bdec39795fe00cf6");
  EXPECT_EQ(hex_of_xs(200), "30a83621ce5422fbdfdd539777458c78");
  std::string abc;
  for (int i = 0; i < 100; ++i) abc += "abc";
  EXPECT_EQ(Md5::hex(abc), "f571117acbd8153c8dc3c81b8817773a");
}

TEST(Fingerprint, FieldOrderPreserved) {
  auto hello = base_hello();
  std::swap(hello.cipher_suites[0], hello.cipher_suites[2]);
  const auto a = extract_fingerprint(base_hello());
  const auto b = extract_fingerprint(hello);
  EXPECT_NE(a.hash(), b.hash());  // order matters, per §4
}

TEST(Fingerprint, SniContentDoesNotMatter) {
  auto hello = base_hello();
  hello.extensions[0] = tls::wire::make_server_name("other.example");
  EXPECT_EQ(extract_fingerprint(base_hello()).hash(),
            extract_fingerprint(hello).hash());
}

TEST(Fingerprint, RandomAndSessionIdDoNotMatter) {
  auto hello = base_hello();
  hello.random.fill(0x77);
  hello.session_id = {9, 9, 9};
  EXPECT_EQ(extract_fingerprint(base_hello()).hash(),
            extract_fingerprint(hello).hash());
}

// GREASE property: injecting any GREASE value at any position in any of the
// GREASEable fields never changes the fingerprint (§4).
class GreaseInvariance : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(GreaseInvariance, CipherPosition) {
  const auto baseline = extract_fingerprint(base_hello()).hash();
  for (std::size_t pos = 0; pos <= 3; ++pos) {
    auto hello = base_hello();
    hello.cipher_suites.insert(
        hello.cipher_suites.begin() + static_cast<std::ptrdiff_t>(pos),
        GetParam());
    EXPECT_EQ(extract_fingerprint(hello).hash(), baseline) << pos;
  }
}

TEST_P(GreaseInvariance, ExtensionAndGroup) {
  const auto baseline = extract_fingerprint(base_hello()).hash();
  auto hello = base_hello();
  hello.extensions.insert(hello.extensions.begin(),
                          tls::wire::make_grease_extension(GetParam()));
  hello.extensions.push_back(tls::wire::make_grease_extension(GetParam()));
  // Rebuild supported_groups with a GREASE group in front.
  const std::uint16_t groups[] = {GetParam(), 29, 23};
  hello.extensions[2] = tls::wire::make_supported_groups(groups);
  EXPECT_EQ(extract_fingerprint(hello).hash(), baseline);
}

INSTANTIATE_TEST_SUITE_P(AllGreaseValues, GreaseInvariance,
                         ::testing::ValuesIn(tls::core::grease_values()));

TEST(Fingerprint, MissingGroupsAndFormatsYieldEmptyFields) {
  tls::wire::ClientHello ch;
  ch.cipher_suites = {0x0005};
  const auto fp = extract_fingerprint(ch);
  EXPECT_TRUE(fp.groups.empty());
  EXPECT_TRUE(fp.ec_point_formats.empty());
  EXPECT_EQ(fp.canonical(), "5,,,");
}

TEST(CanonicalWriter, EveryU16RendersAsToString) {
  Fingerprint fp;
  std::vector<std::uint16_t> all;
  std::string joined;
  for (std::uint32_t v = 0; v <= 0xffff; ++v) {
    const auto id = static_cast<std::uint16_t>(v);
    fp.cipher_suites = {id};
    ASSERT_EQ(fp.canonical(), std::to_string(v) + ",,,");
    all.push_back(id);
    if (v != 0) joined.push_back('-');
    joined += std::to_string(v);
  }
  // Every value again, as one list in a middle field.
  fp.cipher_suites = {5, 10};
  fp.groups = all;
  EXPECT_EQ(fp.canonical(), "5-10,," + joined + ",");
}

TEST(CanonicalWriter, EveryU8PointFormatRendersAsToString) {
  Fingerprint fp;
  std::vector<std::uint8_t> all;
  std::string joined;
  for (unsigned v = 0; v <= 0xff; ++v) {
    const auto format = static_cast<std::uint8_t>(v);
    fp.ec_point_formats = {format};
    ASSERT_EQ(fp.canonical(), ",,," + std::to_string(v));
    all.push_back(format);
    if (v != 0) joined.push_back('-');
    joined += std::to_string(v);
  }
  fp.ec_point_formats = all;
  EXPECT_EQ(fp.canonical(), ",,," + joined);
}

TEST(CanonicalWriter, EmptyListsAndAppendingKeepTheirText) {
  EXPECT_EQ(Fingerprint{}.canonical(), ",,,");
  Fingerprint fp;
  fp.cipher_suites = {9, 10, 99, 100, 999, 1000, 9999, 10000, 65535};
  fp.extensions = {0};
  fp.ec_point_formats = {0, 1, 2};
  const std::string text = "9-10-99-100-999-1000-9999-10000-65535,0,,0-1-2";
  EXPECT_EQ(fp.canonical(), text);
  // append_canonical keeps what the string already holds.
  std::string out = "prefix|";
  fp.append_canonical(out);
  EXPECT_EQ(out, "prefix|" + text);
}

TEST(CanonicalWriter, Ja3AndExtendedVersionPrefixes) {
  auto ch = base_hello();
  for (const std::uint16_t version : {0, 7, 10, 99, 100, 769, 771, 65535}) {
    ch.legacy_version = version;
    const std::string v = std::to_string(version);
    EXPECT_EQ(ja3_string(ch), v + ",49199-156-53,0-10-11,29-23,0");
    EXPECT_EQ(extended_fingerprint_string(ch),
              v + "|49199-156-53,0-10-11,29-23,0|0|");
  }
}

TEST(Fingerprint, OffersUsesRegistry) {
  const auto fp = extract_fingerprint(base_hello());
  EXPECT_TRUE(fp.offers(
      [](const tls::core::CipherSuiteInfo& s) { return tls::core::is_aead(s); }));
  EXPECT_FALSE(fp.offers(
      [](const tls::core::CipherSuiteInfo& s) { return tls::core::is_rc4(s); }));
}

TEST(Ja3, IncludesVersionPrefix) {
  const auto s = ja3_string(base_hello());
  EXPECT_EQ(s.rfind("771,", 0), 0u);  // 0x0303 == 771
  EXPECT_EQ(ja3_hash(base_hello()), Md5::hex(s));
}

TEST(Ja3, VersionChangesHash) {
  auto hello = base_hello();
  hello.legacy_version = 0x0301;
  EXPECT_NE(ja3_hash(hello), ja3_hash(base_hello()));
  // ...but the paper's fingerprint (no version field) is unchanged.
  EXPECT_EQ(extract_fingerprint(hello).hash(),
            extract_fingerprint(base_hello()).hash());
}

// The monitor's one-pass fingerprint (build_client_features over a hello
// decoded into reused scratch) must equal the reference extraction for
// every hello the standard catalog emits, GREASE included.
TEST(Fingerprint, OnePassFeaturesMatchReferenceExtraction) {
  const auto catalog = tls::clients::Catalog::standard();
  tls::core::Rng rng(4);
  tls::wire::ClientHello scratch;
  tls::notary::ClientHelloFeatures features;
  tls::notary::FingerprintMemo memo;
  std::vector<tls::wire::ParseErrorCode> errors;
  std::size_t greased = 0;
  for (const auto& p : catalog.profiles()) {
    for (const auto& cfg : p.versions) {
      const auto hello = tls::clients::make_client_hello(cfg, rng, "fp.test");
      tls::wire::ClientHello::parse_record_into(hello.serialize_record(),
                                                scratch);
      tls::notary::build_client_features(scratch, nullptr, memo,
                                         /*want_fingerprint=*/true, features,
                                         errors);
      ASSERT_TRUE(errors.empty()) << p.name << " " << cfg.version_label;
      ASSERT_TRUE(features.fingerprint_computed);
      const auto want = extract_fingerprint(hello);
      EXPECT_TRUE(features.fp == want) << p.name << " " << cfg.version_label;
      EXPECT_EQ(features.fp_hash, want.hash())
          << p.name << " " << cfg.version_label;
      greased += std::any_of(hello.cipher_suites.begin(),
                             hello.cipher_suites.end(),
                             [](std::uint16_t v) {
                               return tls::core::is_grease(v);
                             });
    }
  }
  EXPECT_GT(greased, 0u);
}

// ---- the monitor's fingerprint memo (fingerprint -> MD5 hex, label) ----

/// One hello per standard-catalog version, GREASE included.
std::vector<tls::wire::ClientHello> catalog_hellos(
    const tls::clients::Catalog& catalog) {
  tls::core::Rng rng(11);
  std::vector<tls::wire::ClientHello> hellos;
  for (const auto& p : catalog.profiles()) {
    for (const auto& cfg : p.versions) {
      hellos.push_back(tls::clients::make_client_hello(cfg, rng, "memo.test"));
    }
  }
  return hellos;
}

/// Runs `hello` through build_client_features with `memo` and holds the
/// hash and label to the reference: extract, MD5, then the database.
void expect_reference(const tls::wire::ClientHello& hello,
                      const FingerprintDatabase& db,
                      tls::notary::FingerprintMemo& memo) {
  tls::notary::ClientHelloFeatures features;
  std::vector<tls::wire::ParseErrorCode> errors;
  tls::notary::build_client_features(hello, &db, memo,
                                     /*want_fingerprint=*/true, features,
                                     errors);
  ASSERT_TRUE(errors.empty());
  ASSERT_TRUE(features.fingerprint_computed);
  const auto want = extract_fingerprint(hello).hash();
  std::optional<SoftwareClass> want_cls;
  if (const auto* label = db.lookup(want)) want_cls = label->cls;
  EXPECT_EQ(features.fp_hash, want) << extract_fingerprint(hello).canonical();
  EXPECT_EQ(features.label_cls, want_cls)
      << extract_fingerprint(hello).canonical();
  EXPECT_LE(memo.size(), memo.capacity());
}

TEST(FingerprintMemo, MissesThenHitsMatchReferenceHashAndLabel) {
  const auto catalog = tls::clients::Catalog::standard();
  const auto db = tls::study::LongitudinalStudy::build_database(catalog);
  const auto hellos = catalog_hellos(catalog);
  std::set<std::string> distinct;
  std::size_t greased = 0, labeled = 0;
  for (const auto& h : hellos) {
    distinct.insert(extract_fingerprint(h).canonical());
    greased += std::any_of(h.cipher_suites.begin(), h.cipher_suites.end(),
                           [](std::uint16_t v) { return tls::core::is_grease(v); });
    labeled += db.lookup(extract_fingerprint(h).hash()) != nullptr;
  }
  ASSERT_GT(greased, 0u);
  ASSERT_GT(labeled, 0u);
  ASSERT_LT(distinct.size(), hellos.size());  // some fingerprints repeat

  tls::notary::FingerprintMemo memo;
  ASSERT_EQ(memo.capacity(), tls::notary::FingerprintMemo::kCapacity);
  // First pass: a miss per distinct fingerprint, a hit per repeat.
  for (const auto& h : hellos) expect_reference(h, db, memo);
  EXPECT_EQ(memo.lookups(), hellos.size());
  EXPECT_EQ(memo.hits(), hellos.size() - distinct.size());
  EXPECT_EQ(memo.size(), distinct.size());
  // Second pass: every lookup hits.
  for (const auto& h : hellos) expect_reference(h, db, memo);
  EXPECT_EQ(memo.lookups(), 2 * hellos.size());
  EXPECT_EQ(memo.hits(), 2 * hellos.size() - distinct.size());
}

TEST(FingerprintMemo, OneEntryCapacityFlushesAndStillMatchesReference) {
  const auto catalog = tls::clients::Catalog::standard();
  const auto db = tls::study::LongitudinalStudy::build_database(catalog);
  const auto hellos = catalog_hellos(catalog);
  tls::notary::FingerprintMemo memo(1);
  ASSERT_EQ(memo.capacity(), 1u);
  // Alternating order: each hello, its neighbour, then itself twice. Two
  // different fingerprints in a row flush the one-entry table; the repeat
  // that follows hits what the flush left.
  for (std::size_t i = 0; i < hellos.size(); ++i) {
    const auto& a = hellos[i];
    const auto& b = hellos[(i + 1) % hellos.size()];
    for (const auto* h : {&a, &b, &a, &a}) expect_reference(*h, db, memo);
  }
  EXPECT_EQ(memo.lookups(), 4 * hellos.size());
  EXPECT_GE(memo.hits(), hellos.size());
  EXPECT_LT(memo.hits(), memo.lookups());
}

/// The memo keys on the four lists, not on their values run together:
/// hellos that carry the same values in the same order, split at
/// different list boundaries, are different fingerprints. The first pair
/// is the smallest case; the rest split {1, 2, 3, 4} at every boundary,
/// so many of them share a cipher-suite list (supported_groups is
/// extension 10, ec_point_formats 11).
TEST(FingerprintMemo, ListBoundaryIsPartOfTheKey) {
  const auto catalog = tls::clients::Catalog::standard();
  const auto db = tls::study::LongitudinalStudy::build_database(catalog);
  const auto bare = [](std::uint16_t type) {
    return tls::wire::Extension{type, {}};
  };
  std::vector<tls::wire::ClientHello> hellos(2);
  hellos[0].cipher_suites = {1, 2};
  hellos[1].cipher_suites = {1};
  hellos[1].extensions = {bare(2)};
  const std::vector<std::uint16_t> v = {1, 2, 3, 4};
  const std::size_t n = v.size();
  for (std::size_t i = 0; i <= n; ++i) {
    for (std::size_t j = i; j <= n; ++j) {
      for (std::size_t k = j; k <= n; ++k) {
        tls::wire::ClientHello h;
        h.cipher_suites.assign(v.begin(), v.begin() + i);
        for (std::size_t x = i; x < j; ++x) h.extensions.push_back(bare(v[x]));
        if (k > j) {
          h.extensions.push_back(tls::wire::make_supported_groups(
              std::span<const std::uint16_t>(v.data() + j, k - j)));
        }
        if (n > k) {
          const std::vector<std::uint8_t> formats(v.begin() + k, v.end());
          h.extensions.push_back(tls::wire::make_ec_point_formats(formats));
        }
        hellos.push_back(std::move(h));
      }
    }
  }
  std::set<std::string> distinct;
  for (const auto& h : hellos) {
    distinct.insert(extract_fingerprint(h).canonical());
  }
  ASSERT_EQ(distinct.size(), hellos.size());

  tls::notary::FingerprintMemo memo;
  for (const auto& h : hellos) expect_reference(h, db, memo);
  EXPECT_EQ(memo.size(), hellos.size());
  EXPECT_EQ(memo.hits(), 0u);
  // Each one now hits its own entry.
  for (const auto& h : hellos) expect_reference(h, db, memo);
  EXPECT_EQ(memo.hits(), hellos.size());
}

}  // namespace
}  // namespace tls::fp
