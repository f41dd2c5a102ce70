// IANA TLS cipher-suite registry with the structural attributes the study
// classifies on: key exchange, authentication, bulk cipher, mode, MAC,
// key bits. Every classification used by the paper's figures (RC4/CBC/AEAD,
// export, anonymous, NULL, forward secrecy, kex family, AEAD kind) is
// derived from these attributes — never from string matching on names.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace tls::core {

enum class KeyExchange : std::uint8_t {
  kNull,        // TLS_NULL_WITH_NULL_NULL
  kRsa,         // RSA key transport
  kRsaExport,   // 512-bit export RSA key transport
  kDh,          // static DH (certified DH key)
  kDhExport,
  kDhe,         // ephemeral finite-field DH
  kDheExport,
  kDhAnon,      // anonymous (unauthenticated) DH
  kDhAnonExport,
  kEcdh,        // static ECDH
  kEcdhe,       // ephemeral ECDH
  kEcdhAnon,    // anonymous ECDH
  kPsk,
  kDhePsk,
  kRsaPsk,
  kEcdhePsk,
  kSrp,
  kKrb5,
  kKrb5Export,
  kGost,
  kTls13,       // TLS 1.3 suites: kex is negotiated separately (always FS)
};

enum class Auth : std::uint8_t {
  kNone,   // anonymous
  kRsa,
  kDss,
  kEcdsa,
  kPsk,
  kSrp,
  kKrb5,
  kGost,
  kAny,    // TLS 1.3: authentication decoupled from the suite
};

enum class BulkCipher : std::uint8_t {
  kNull,
  kRc2_40,
  kRc4_40,
  kRc4_56,
  kRc4_128,
  kDes40,
  kDes,
  k3Des,
  kIdea,
  kSeed,
  kAes128,
  kAes256,
  kCamellia128,
  kCamellia256,
  kAria128,
  kAria256,
  kChaCha20,
  kGost28147,
};

enum class CipherMode : std::uint8_t {
  kNone,     // NULL cipher
  kStream,   // RC4, GOST CNT
  kCbc,
  kGcm,
  kCcm,
  kCcm8,
  kPoly1305,
};

enum class MacAlgorithm : std::uint8_t {
  kNull,
  kMd5,
  kSha1,
  kSha256,
  kSha384,
  kAead,      // integrity provided by the AEAD mode itself
  kGostImit,
};

/// Static description of one registered cipher suite (or SCSV).
struct CipherSuiteInfo {
  std::uint16_t id = 0;
  std::string_view name;
  KeyExchange kex = KeyExchange::kNull;
  Auth auth = Auth::kNone;
  BulkCipher cipher = BulkCipher::kNull;
  CipherMode mode = CipherMode::kNone;
  MacAlgorithm mac = MacAlgorithm::kNull;
  std::uint16_t key_bits = 0;  // effective symmetric key strength
  bool scsv = false;           // signalling value, not a real suite
};

/// All registry entries, ascending by id.
std::span<const CipherSuiteInfo> all_cipher_suites();

/// Lookup by wire id; nullptr when unknown (GREASE or unregistered). One
/// read of a flat table indexed by the id.
const CipherSuiteInfo* find_cipher_suite(std::uint16_t id);

/// Lookup by IANA name; nullptr when unknown.
const CipherSuiteInfo* find_cipher_suite(std::string_view name);

// ---- Derived classifications used throughout the study ----

/// AEAD = GCM, CCM, CCM_8 or Poly1305 mode (paper Figs. 2, 3, 4, 9, 10).
bool is_aead(const CipherSuiteInfo& s);
bool is_cbc(const CipherSuiteInfo& s);
bool is_rc4(const CipherSuiteInfo& s);
bool is_single_des(const CipherSuiteInfo& s);  // DES / DES40, not 3DES
bool is_3des(const CipherSuiteInfo& s);
/// Export-grade key exchange or 40-bit cipher (FREAK/Logjam surface, §5.5).
bool is_export(const CipherSuiteInfo& s);
/// Unauthenticated key establishment (DH_anon / ECDH_anon, §6.2).
bool is_anonymous(const CipherSuiteInfo& s);
/// NULL bulk cipher: integrity only, no confidentiality (§6.1).
bool is_null_cipher(const CipherSuiteInfo& s);
/// Both integrity and confidentiality absent (TLS_NULL_WITH_NULL_NULL).
bool is_null_with_null_null(const CipherSuiteInfo& s);
/// Ephemeral key exchange ⇒ forward secrecy (§6.3.1). TLS 1.3 is always FS.
bool is_forward_secret(const CipherSuiteInfo& s);

/// Encryption-mode class for Figures 2/3/4. NULL and unknown map to kOther.
enum class CipherClass : std::uint8_t { kAead, kCbc, kRc4, kNullCipher, kOther };
/// Number of CipherClass values (for enum-indexed counter arrays).
inline constexpr std::size_t kCipherClassCount = 5;
CipherClass cipher_class(const CipherSuiteInfo& s);
/// Classifies a raw id; unknown/GREASE ids yield kOther.
CipherClass cipher_class(std::uint16_t id);
std::string_view cipher_class_name(CipherClass c);

/// Key-exchange family for Figure 8.
enum class KexClass : std::uint8_t {
  kRsa, kDhe, kEcdhe, kDhStatic, kEcdhStatic, kAnon, kPskFamily, kTls13, kOther
};
/// Number of KexClass values (for enum-indexed counter arrays).
inline constexpr std::size_t kKexClassCount = 9;
KexClass kex_class(const CipherSuiteInfo& s);
KexClass kex_class(std::uint16_t id);
std::string_view kex_class_name(KexClass c);

/// AEAD scheme breakdown for Figures 9/10.
enum class AeadKind : std::uint8_t {
  kAes128Gcm, kAes256Gcm, kChaCha20Poly1305, kAesCcm,
  kOtherAead,  // ARIA-GCM / Camellia-GCM
  kNotAead
};
/// Number of AeadKind values (for enum-indexed counter arrays).
inline constexpr std::size_t kAeadKindCount = 6;
AeadKind aead_kind(const CipherSuiteInfo& s);
AeadKind aead_kind(std::uint16_t id);

/// Every class above that a hello's suite list is scanned for, as one word
/// per registry row. The bits are computed once per row from the predicates,
/// which stay the only definition of each class; an unregistered id (GREASE
/// included) has no bit set and `aead` kNotAead.
struct SuiteTraits {
  static constexpr std::uint16_t kKnown = 1u << 0;
  static constexpr std::uint16_t kScsv = 1u << 1;
  static constexpr std::uint16_t kRc4 = 1u << 2;
  static constexpr std::uint16_t kSingleDes = 1u << 3;
  static constexpr std::uint16_t k3Des = 1u << 4;
  static constexpr std::uint16_t kAead = 1u << 5;
  static constexpr std::uint16_t kCbc = 1u << 6;
  static constexpr std::uint16_t kExport = 1u << 7;
  static constexpr std::uint16_t kAnonymous = 1u << 8;
  static constexpr std::uint16_t kNullCipher = 1u << 9;
  static constexpr std::uint16_t kForwardSecret = 1u << 10;

  std::uint16_t bits = 0;
  AeadKind aead = AeadKind::kNotAead;
};
/// The traits of `id`'s registry row: the same flat-table read as
/// find_cipher_suite.
SuiteTraits suite_traits(std::uint16_t id);

/// Well-known ids used throughout tests, benches and client catalogs.
namespace suites {
inline constexpr std::uint16_t TLS_NULL_WITH_NULL_NULL = 0x0000;
inline constexpr std::uint16_t TLS_RSA_EXPORT_WITH_RC4_40_MD5 = 0x0003;
inline constexpr std::uint16_t TLS_RSA_WITH_RC4_128_MD5 = 0x0004;
inline constexpr std::uint16_t TLS_RSA_WITH_RC4_128_SHA = 0x0005;
inline constexpr std::uint16_t TLS_RSA_WITH_DES_CBC_SHA = 0x0009;
inline constexpr std::uint16_t TLS_RSA_WITH_3DES_EDE_CBC_SHA = 0x000a;
inline constexpr std::uint16_t TLS_DHE_RSA_WITH_DES_CBC_SHA = 0x0015;
inline constexpr std::uint16_t TLS_DHE_RSA_WITH_3DES_EDE_CBC_SHA = 0x0016;
inline constexpr std::uint16_t TLS_DH_anon_WITH_RC4_128_MD5 = 0x0018;
inline constexpr std::uint16_t TLS_DH_anon_WITH_3DES_EDE_CBC_SHA = 0x001b;
inline constexpr std::uint16_t TLS_RSA_WITH_AES_128_CBC_SHA = 0x002f;
inline constexpr std::uint16_t TLS_DHE_RSA_WITH_AES_128_CBC_SHA = 0x0033;
inline constexpr std::uint16_t TLS_DH_anon_WITH_AES_128_CBC_SHA = 0x0034;
inline constexpr std::uint16_t TLS_RSA_WITH_AES_256_CBC_SHA = 0x0035;
inline constexpr std::uint16_t TLS_DHE_RSA_WITH_AES_256_CBC_SHA = 0x0039;
inline constexpr std::uint16_t TLS_RSA_WITH_NULL_SHA256 = 0x003b;
inline constexpr std::uint16_t TLS_RSA_WITH_AES_128_CBC_SHA256 = 0x003c;
inline constexpr std::uint16_t TLS_RSA_WITH_AES_256_CBC_SHA256 = 0x003d;
inline constexpr std::uint16_t TLS_DHE_RSA_WITH_AES_128_CBC_SHA256 = 0x0067;
inline constexpr std::uint16_t TLS_DHE_RSA_WITH_AES_256_CBC_SHA256 = 0x006b;
inline constexpr std::uint16_t TLS_RSA_WITH_NULL_SHA = 0x0002;
inline constexpr std::uint16_t TLS_RSA_WITH_NULL_MD5 = 0x0001;
inline constexpr std::uint16_t TLS_RSA_WITH_AES_128_GCM_SHA256 = 0x009c;
inline constexpr std::uint16_t TLS_RSA_WITH_AES_256_GCM_SHA384 = 0x009d;
inline constexpr std::uint16_t TLS_DHE_RSA_WITH_AES_128_GCM_SHA256 = 0x009e;
inline constexpr std::uint16_t TLS_DHE_RSA_WITH_AES_256_GCM_SHA384 = 0x009f;
inline constexpr std::uint16_t TLS_EMPTY_RENEGOTIATION_INFO_SCSV = 0x00ff;
inline constexpr std::uint16_t TLS_AES_128_GCM_SHA256 = 0x1301;
inline constexpr std::uint16_t TLS_AES_256_GCM_SHA384 = 0x1302;
inline constexpr std::uint16_t TLS_CHACHA20_POLY1305_SHA256 = 0x1303;
inline constexpr std::uint16_t TLS_AES_128_CCM_SHA256 = 0x1304;
inline constexpr std::uint16_t TLS_FALLBACK_SCSV = 0x5600;
inline constexpr std::uint16_t TLS_ECDHE_ECDSA_WITH_RC4_128_SHA = 0xc007;
inline constexpr std::uint16_t TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA = 0xc009;
inline constexpr std::uint16_t TLS_ECDHE_ECDSA_WITH_AES_256_CBC_SHA = 0xc00a;
inline constexpr std::uint16_t TLS_ECDHE_RSA_WITH_RC4_128_SHA = 0xc011;
inline constexpr std::uint16_t TLS_ECDHE_RSA_WITH_3DES_EDE_CBC_SHA = 0xc012;
inline constexpr std::uint16_t TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA = 0xc013;
inline constexpr std::uint16_t TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA = 0xc014;
inline constexpr std::uint16_t TLS_ECDH_anon_WITH_AES_128_CBC_SHA = 0xc018;
inline constexpr std::uint16_t TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA256 = 0xc023;
inline constexpr std::uint16_t TLS_ECDHE_ECDSA_WITH_AES_256_CBC_SHA384 = 0xc024;
inline constexpr std::uint16_t TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA256 = 0xc027;
inline constexpr std::uint16_t TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA384 = 0xc028;
inline constexpr std::uint16_t TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256 = 0xc02b;
inline constexpr std::uint16_t TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384 = 0xc02c;
inline constexpr std::uint16_t TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256 = 0xc02f;
inline constexpr std::uint16_t TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384 = 0xc030;
inline constexpr std::uint16_t TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256 = 0xcca8;
inline constexpr std::uint16_t TLS_ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256 = 0xcca9;
inline constexpr std::uint16_t TLS_DHE_RSA_WITH_CHACHA20_POLY1305_SHA256 = 0xccaa;
inline constexpr std::uint16_t TLS_GOSTR341001_WITH_28147_CNT_IMIT = 0x0081;
}  // namespace suites

}  // namespace tls::core
