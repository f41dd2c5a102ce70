#include <gtest/gtest.h>

#include <set>
#include <string>

#include "tlscore/cipher_suites.hpp"

namespace tls::core {
namespace {

TEST(Registry, SortedAndUnique) {
  const auto suites = all_cipher_suites();
  ASSERT_GT(suites.size(), 150u);
  for (std::size_t i = 1; i < suites.size(); ++i) {
    EXPECT_LT(suites[i - 1].id, suites[i].id);
  }
}

TEST(Registry, IdLookupConsistent) {
  for (const auto& s : all_cipher_suites()) {
    const auto* found = find_cipher_suite(s.id);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name, s.name);
  }
  EXPECT_EQ(find_cipher_suite(std::uint16_t{0x4a4a}), nullptr);  // GREASE
  EXPECT_EQ(find_cipher_suite(std::uint16_t{0xeeee}), nullptr);
}

TEST(SuiteTable, FlatLookupMatchesLinearSearchForEveryId) {
  const auto rows = all_cipher_suites();
  std::size_t registered = 0;
  for (std::uint32_t wide = 0; wide <= 0xffff; ++wide) {
    const auto id = static_cast<std::uint16_t>(wide);
    const CipherSuiteInfo* linear = nullptr;
    for (const auto& s : rows) {
      if (s.id == id) {
        linear = &s;
        break;
      }
    }
    ASSERT_EQ(find_cipher_suite(id), linear) << "id 0x" << std::hex << id;
    if (linear != nullptr) ++registered;
  }
  EXPECT_EQ(registered, rows.size());

  for (const std::uint16_t grease : {0x0a0a, 0x4a4a, 0xfafa}) {
    EXPECT_EQ(find_cipher_suite(grease), nullptr);
  }
  for (const std::uint16_t unassigned : {0x0a0b, 0x5601, 0xeeee, 0xffff}) {
    EXPECT_EQ(find_cipher_suite(unassigned), nullptr);
  }
  for (const std::uint16_t scsv : {suites::TLS_EMPTY_RENEGOTIATION_INFO_SCSV,
                                   suites::TLS_FALLBACK_SCSV}) {
    const auto* row = find_cipher_suite(scsv);
    ASSERT_NE(row, nullptr);
    EXPECT_TRUE(row->scsv);
    EXPECT_EQ(row->id, scsv);
  }
}

TEST(SuiteTable, TraitBitsEqualThePredicatesOnEveryRow) {
  using T = SuiteTraits;
  for (const auto& s : all_cipher_suites()) {
    SCOPED_TRACE(std::string(s.name));
    const SuiteTraits t = suite_traits(s.id);
    const auto has = [&t](std::uint16_t bit) { return (t.bits & bit) != 0; };
    EXPECT_TRUE(has(T::kKnown));
    EXPECT_EQ(has(T::kScsv), s.scsv);
    EXPECT_EQ(has(T::kRc4), is_rc4(s));
    EXPECT_EQ(has(T::kSingleDes), is_single_des(s));
    EXPECT_EQ(has(T::k3Des), is_3des(s));
    EXPECT_EQ(has(T::kAead), is_aead(s));
    EXPECT_EQ(has(T::kCbc), is_cbc(s));
    EXPECT_EQ(has(T::kExport), is_export(s));
    EXPECT_EQ(has(T::kAnonymous), is_anonymous(s));
    EXPECT_EQ(has(T::kNullCipher), is_null_cipher(s));
    EXPECT_EQ(has(T::kForwardSecret), is_forward_secret(s));
    EXPECT_EQ(t.aead, aead_kind(s));
  }
  // Unregistered ids, GREASE among them, carry no bit at all.
  for (const std::uint16_t id : {0x0a0a, 0xdada, 0x0a0b, 0xeeee}) {
    EXPECT_EQ(suite_traits(id).bits, 0u);
    EXPECT_EQ(suite_traits(id).aead, AeadKind::kNotAead);
  }
  const auto scsv = suite_traits(suites::TLS_FALLBACK_SCSV);
  EXPECT_EQ(scsv.bits, T::kKnown | T::kScsv);
}

TEST(Registry, NameLookupConsistent) {
  for (const auto& s : all_cipher_suites()) {
    const auto* found = find_cipher_suite(s.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->id, s.id);
  }
  EXPECT_EQ(find_cipher_suite("TLS_NO_SUCH_SUITE"), nullptr);
}

// Cross-validate structural attributes against the IANA naming convention —
// every rule the name encodes must agree with the attribute data.
class SuiteNameConsistency : public ::testing::TestWithParam<CipherSuiteInfo> {};

TEST_P(SuiteNameConsistency, NameMatchesAttributes) {
  const auto& s = GetParam();
  const std::string name(s.name);
  const auto has = [&](const char* token) {
    return name.find(token) != std::string::npos;
  };
  if (s.scsv) {
    EXPECT_TRUE(has("SCSV"));
    return;
  }
  EXPECT_EQ(has("_GCM_"), s.mode == CipherMode::kGcm) << name;
  EXPECT_EQ(has("CHACHA20"), s.cipher == BulkCipher::kChaCha20) << name;
  EXPECT_EQ(has("_CBC"), s.mode == CipherMode::kCbc) << name;
  EXPECT_EQ(has("_RC4_"), is_rc4(s)) << name;
  EXPECT_EQ(has("3DES"), is_3des(s)) << name;
  EXPECT_EQ(has("EXPORT"), is_export(s)) << name;
  EXPECT_EQ(has("_anon_"), is_anonymous(s)) << name;
  EXPECT_EQ(has("_NULL_") && !has("WITH_NULL_NULL"),
            is_null_cipher(s) && s.id != 0x0000)
      << name;
  if (has("_DHE_") || has("_ECDHE_")) {
    EXPECT_TRUE(is_forward_secret(s)) << name;
  }
  if (has("TLS_RSA_WITH")) {
    EXPECT_FALSE(is_forward_secret(s)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, SuiteNameConsistency,
    ::testing::ValuesIn(all_cipher_suites().begin(),
                        all_cipher_suites().end()),
    [](const ::testing::TestParamInfo<CipherSuiteInfo>& info) {
      std::string n(info.param.name);
      for (auto& ch : n) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return n;
    });

TEST(Classification, AeadImpliesAeadMac) {
  for (const auto& s : all_cipher_suites()) {
    if (is_aead(s)) EXPECT_EQ(s.mac, MacAlgorithm::kAead) << s.name;
    if (s.mac == MacAlgorithm::kAead) EXPECT_TRUE(is_aead(s)) << s.name;
  }
}

TEST(Classification, ClassesArePartition) {
  // Each real suite lands in exactly one CipherClass bucket.
  for (const auto& s : all_cipher_suites()) {
    if (s.scsv) continue;
    const int buckets = static_cast<int>(is_aead(s)) +
                        static_cast<int>(is_cbc(s)) +
                        static_cast<int>(is_rc4(s)) +
                        static_cast<int>(is_null_cipher(s));
    EXPECT_LE(buckets, 1) << s.name;
    const CipherClass c = cipher_class(s);
    if (buckets == 0) {
      EXPECT_EQ(c, CipherClass::kOther) << s.name;  // GOST CNT, IDEA stream?
    }
  }
}

TEST(Classification, KnownSuites) {
  using namespace suites;
  EXPECT_EQ(cipher_class(TLS_RSA_WITH_RC4_128_SHA), CipherClass::kRc4);
  EXPECT_EQ(cipher_class(TLS_RSA_WITH_AES_128_CBC_SHA), CipherClass::kCbc);
  EXPECT_EQ(cipher_class(TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256),
            CipherClass::kAead);
  EXPECT_EQ(cipher_class(TLS_RSA_WITH_NULL_SHA), CipherClass::kNullCipher);
  EXPECT_EQ(cipher_class(TLS_FALLBACK_SCSV), CipherClass::kOther);
  EXPECT_EQ(cipher_class(std::uint16_t{0xdada}), CipherClass::kOther);
}

TEST(Classification, KexClasses) {
  using namespace suites;
  EXPECT_EQ(kex_class(TLS_RSA_WITH_AES_128_GCM_SHA256), KexClass::kRsa);
  EXPECT_EQ(kex_class(TLS_DHE_RSA_WITH_AES_128_GCM_SHA256), KexClass::kDhe);
  EXPECT_EQ(kex_class(TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256),
            KexClass::kEcdhe);
  EXPECT_EQ(kex_class(std::uint16_t{0xc004}), KexClass::kEcdhStatic);
  EXPECT_EQ(kex_class(TLS_DH_anon_WITH_RC4_128_MD5), KexClass::kAnon);
  EXPECT_EQ(kex_class(TLS_AES_128_GCM_SHA256), KexClass::kTls13);
  EXPECT_EQ(kex_class(TLS_RSA_EXPORT_WITH_RC4_40_MD5), KexClass::kRsa);
}

TEST(Classification, AeadKinds) {
  using namespace suites;
  EXPECT_EQ(aead_kind(TLS_RSA_WITH_AES_128_GCM_SHA256), AeadKind::kAes128Gcm);
  EXPECT_EQ(aead_kind(TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384),
            AeadKind::kAes256Gcm);
  EXPECT_EQ(aead_kind(TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256),
            AeadKind::kChaCha20Poly1305);
  EXPECT_EQ(aead_kind(std::uint16_t{0xc09c}), AeadKind::kAesCcm);
  EXPECT_EQ(aead_kind(TLS_RSA_WITH_AES_128_CBC_SHA), AeadKind::kNotAead);
}

TEST(Classification, ExportIncludes40BitCiphers) {
  // Export = export kex OR <= 40-bit strength.
  EXPECT_TRUE(is_export(*find_cipher_suite(std::uint16_t{0x0003})));
  EXPECT_TRUE(is_export(*find_cipher_suite(std::uint16_t{0x0017})));
  EXPECT_FALSE(is_export(*find_cipher_suite(std::uint16_t{0x0005})));
  EXPECT_FALSE(is_export(*find_cipher_suite(std::uint16_t{0x0009})));  // DES
}

TEST(Classification, ForwardSecrecy) {
  using namespace suites;
  EXPECT_TRUE(
      is_forward_secret(*find_cipher_suite(TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA)));
  EXPECT_TRUE(
      is_forward_secret(*find_cipher_suite(TLS_DHE_RSA_WITH_AES_128_CBC_SHA)));
  EXPECT_TRUE(is_forward_secret(*find_cipher_suite(TLS_AES_128_GCM_SHA256)));
  EXPECT_FALSE(
      is_forward_secret(*find_cipher_suite(TLS_RSA_WITH_AES_128_CBC_SHA)));
  EXPECT_FALSE(is_forward_secret(*find_cipher_suite(std::uint16_t{0xc004})));
}

TEST(Classification, NullWithNullNull) {
  EXPECT_TRUE(is_null_with_null_null(*find_cipher_suite(std::uint16_t{0})));
  EXPECT_FALSE(
      is_null_with_null_null(*find_cipher_suite(std::uint16_t{0x0002})));
  EXPECT_TRUE(is_null_cipher(*find_cipher_suite(std::uint16_t{0x0002})));
}

TEST(Classification, Names) {
  EXPECT_EQ(cipher_class_name(CipherClass::kAead), "AEAD");
  EXPECT_EQ(kex_class_name(KexClass::kEcdhe), "ECDHE");
}

}  // namespace
}  // namespace tls::core
