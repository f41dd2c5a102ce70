#include "tlscore/cipher_suites.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>

namespace tls::core {

namespace {

using KX = KeyExchange;
using AU = Auth;
using BC = BulkCipher;
using MO = CipherMode;
using MA = MacAlgorithm;

constexpr CipherSuiteInfo row(std::uint16_t id, std::string_view name, KX kx,
                              AU au, BC bc, MO mo, MA ma, std::uint16_t bits,
                              bool scsv = false) {
  return CipherSuiteInfo{id, name, kx, au, bc, mo, ma, bits, scsv};
}

// Registry rows, ascending by id. Attribute data follows the IANA TLS
// Cipher Suites registry.
constexpr CipherSuiteInfo kSuites[] = {
    row(0x0000, "TLS_NULL_WITH_NULL_NULL", KX::kNull, AU::kNone, BC::kNull, MO::kNone, MA::kNull, 0),
    row(0x0001, "TLS_RSA_WITH_NULL_MD5", KX::kRsa, AU::kRsa, BC::kNull, MO::kNone, MA::kMd5, 0),
    row(0x0002, "TLS_RSA_WITH_NULL_SHA", KX::kRsa, AU::kRsa, BC::kNull, MO::kNone, MA::kSha1, 0),
    row(0x0003, "TLS_RSA_EXPORT_WITH_RC4_40_MD5", KX::kRsaExport, AU::kRsa, BC::kRc4_40, MO::kStream, MA::kMd5, 40),
    row(0x0004, "TLS_RSA_WITH_RC4_128_MD5", KX::kRsa, AU::kRsa, BC::kRc4_128, MO::kStream, MA::kMd5, 128),
    row(0x0005, "TLS_RSA_WITH_RC4_128_SHA", KX::kRsa, AU::kRsa, BC::kRc4_128, MO::kStream, MA::kSha1, 128),
    row(0x0006, "TLS_RSA_EXPORT_WITH_RC2_CBC_40_MD5", KX::kRsaExport, AU::kRsa, BC::kRc2_40, MO::kCbc, MA::kMd5, 40),
    row(0x0007, "TLS_RSA_WITH_IDEA_CBC_SHA", KX::kRsa, AU::kRsa, BC::kIdea, MO::kCbc, MA::kSha1, 128),
    row(0x0008, "TLS_RSA_EXPORT_WITH_DES40_CBC_SHA", KX::kRsaExport, AU::kRsa, BC::kDes40, MO::kCbc, MA::kSha1, 40),
    row(0x0009, "TLS_RSA_WITH_DES_CBC_SHA", KX::kRsa, AU::kRsa, BC::kDes, MO::kCbc, MA::kSha1, 56),
    row(0x000a, "TLS_RSA_WITH_3DES_EDE_CBC_SHA", KX::kRsa, AU::kRsa, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0x000b, "TLS_DH_DSS_EXPORT_WITH_DES40_CBC_SHA", KX::kDhExport, AU::kDss, BC::kDes40, MO::kCbc, MA::kSha1, 40),
    row(0x000c, "TLS_DH_DSS_WITH_DES_CBC_SHA", KX::kDh, AU::kDss, BC::kDes, MO::kCbc, MA::kSha1, 56),
    row(0x000d, "TLS_DH_DSS_WITH_3DES_EDE_CBC_SHA", KX::kDh, AU::kDss, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0x000e, "TLS_DH_RSA_EXPORT_WITH_DES40_CBC_SHA", KX::kDhExport, AU::kRsa, BC::kDes40, MO::kCbc, MA::kSha1, 40),
    row(0x000f, "TLS_DH_RSA_WITH_DES_CBC_SHA", KX::kDh, AU::kRsa, BC::kDes, MO::kCbc, MA::kSha1, 56),
    row(0x0010, "TLS_DH_RSA_WITH_3DES_EDE_CBC_SHA", KX::kDh, AU::kRsa, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0x0011, "TLS_DHE_DSS_EXPORT_WITH_DES40_CBC_SHA", KX::kDheExport, AU::kDss, BC::kDes40, MO::kCbc, MA::kSha1, 40),
    row(0x0012, "TLS_DHE_DSS_WITH_DES_CBC_SHA", KX::kDhe, AU::kDss, BC::kDes, MO::kCbc, MA::kSha1, 56),
    row(0x0013, "TLS_DHE_DSS_WITH_3DES_EDE_CBC_SHA", KX::kDhe, AU::kDss, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0x0014, "TLS_DHE_RSA_EXPORT_WITH_DES40_CBC_SHA", KX::kDheExport, AU::kRsa, BC::kDes40, MO::kCbc, MA::kSha1, 40),
    row(0x0015, "TLS_DHE_RSA_WITH_DES_CBC_SHA", KX::kDhe, AU::kRsa, BC::kDes, MO::kCbc, MA::kSha1, 56),
    row(0x0016, "TLS_DHE_RSA_WITH_3DES_EDE_CBC_SHA", KX::kDhe, AU::kRsa, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0x0017, "TLS_DH_anon_EXPORT_WITH_RC4_40_MD5", KX::kDhAnonExport, AU::kNone, BC::kRc4_40, MO::kStream, MA::kMd5, 40),
    row(0x0018, "TLS_DH_anon_WITH_RC4_128_MD5", KX::kDhAnon, AU::kNone, BC::kRc4_128, MO::kStream, MA::kMd5, 128),
    row(0x0019, "TLS_DH_anon_EXPORT_WITH_DES40_CBC_SHA", KX::kDhAnonExport, AU::kNone, BC::kDes40, MO::kCbc, MA::kSha1, 40),
    row(0x001a, "TLS_DH_anon_WITH_DES_CBC_SHA", KX::kDhAnon, AU::kNone, BC::kDes, MO::kCbc, MA::kSha1, 56),
    row(0x001b, "TLS_DH_anon_WITH_3DES_EDE_CBC_SHA", KX::kDhAnon, AU::kNone, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0x001e, "TLS_KRB5_WITH_DES_CBC_SHA", KX::kKrb5, AU::kKrb5, BC::kDes, MO::kCbc, MA::kSha1, 56),
    row(0x001f, "TLS_KRB5_WITH_3DES_EDE_CBC_SHA", KX::kKrb5, AU::kKrb5, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0x0020, "TLS_KRB5_WITH_RC4_128_SHA", KX::kKrb5, AU::kKrb5, BC::kRc4_128, MO::kStream, MA::kSha1, 128),
    row(0x0021, "TLS_KRB5_WITH_IDEA_CBC_SHA", KX::kKrb5, AU::kKrb5, BC::kIdea, MO::kCbc, MA::kSha1, 128),
    row(0x0022, "TLS_KRB5_WITH_DES_CBC_MD5", KX::kKrb5, AU::kKrb5, BC::kDes, MO::kCbc, MA::kMd5, 56),
    row(0x0023, "TLS_KRB5_WITH_3DES_EDE_CBC_MD5", KX::kKrb5, AU::kKrb5, BC::k3Des, MO::kCbc, MA::kMd5, 112),
    row(0x0024, "TLS_KRB5_WITH_RC4_128_MD5", KX::kKrb5, AU::kKrb5, BC::kRc4_128, MO::kStream, MA::kMd5, 128),
    row(0x0026, "TLS_KRB5_EXPORT_WITH_DES_CBC_40_SHA", KX::kKrb5Export, AU::kKrb5, BC::kDes40, MO::kCbc, MA::kSha1, 40),
    row(0x0027, "TLS_KRB5_EXPORT_WITH_RC2_CBC_40_SHA", KX::kKrb5Export, AU::kKrb5, BC::kRc2_40, MO::kCbc, MA::kSha1, 40),
    row(0x0028, "TLS_KRB5_EXPORT_WITH_RC4_40_SHA", KX::kKrb5Export, AU::kKrb5, BC::kRc4_40, MO::kStream, MA::kSha1, 40),
    row(0x002a, "TLS_KRB5_EXPORT_WITH_RC2_CBC_40_MD5", KX::kKrb5Export, AU::kKrb5, BC::kRc2_40, MO::kCbc, MA::kMd5, 40),
    row(0x002b, "TLS_KRB5_EXPORT_WITH_RC4_40_MD5", KX::kKrb5Export, AU::kKrb5, BC::kRc4_40, MO::kStream, MA::kMd5, 40),
    row(0x002c, "TLS_PSK_WITH_NULL_SHA", KX::kPsk, AU::kPsk, BC::kNull, MO::kNone, MA::kSha1, 0),
    row(0x002d, "TLS_DHE_PSK_WITH_NULL_SHA", KX::kDhePsk, AU::kPsk, BC::kNull, MO::kNone, MA::kSha1, 0),
    row(0x002e, "TLS_RSA_PSK_WITH_NULL_SHA", KX::kRsaPsk, AU::kPsk, BC::kNull, MO::kNone, MA::kSha1, 0),
    row(0x002f, "TLS_RSA_WITH_AES_128_CBC_SHA", KX::kRsa, AU::kRsa, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0x0030, "TLS_DH_DSS_WITH_AES_128_CBC_SHA", KX::kDh, AU::kDss, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0x0031, "TLS_DH_RSA_WITH_AES_128_CBC_SHA", KX::kDh, AU::kRsa, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0x0032, "TLS_DHE_DSS_WITH_AES_128_CBC_SHA", KX::kDhe, AU::kDss, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0x0033, "TLS_DHE_RSA_WITH_AES_128_CBC_SHA", KX::kDhe, AU::kRsa, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0x0034, "TLS_DH_anon_WITH_AES_128_CBC_SHA", KX::kDhAnon, AU::kNone, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0x0035, "TLS_RSA_WITH_AES_256_CBC_SHA", KX::kRsa, AU::kRsa, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0x0036, "TLS_DH_DSS_WITH_AES_256_CBC_SHA", KX::kDh, AU::kDss, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0x0037, "TLS_DH_RSA_WITH_AES_256_CBC_SHA", KX::kDh, AU::kRsa, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0x0038, "TLS_DHE_DSS_WITH_AES_256_CBC_SHA", KX::kDhe, AU::kDss, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0x0039, "TLS_DHE_RSA_WITH_AES_256_CBC_SHA", KX::kDhe, AU::kRsa, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0x003a, "TLS_DH_anon_WITH_AES_256_CBC_SHA", KX::kDhAnon, AU::kNone, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0x003b, "TLS_RSA_WITH_NULL_SHA256", KX::kRsa, AU::kRsa, BC::kNull, MO::kNone, MA::kSha256, 0),
    row(0x003c, "TLS_RSA_WITH_AES_128_CBC_SHA256", KX::kRsa, AU::kRsa, BC::kAes128, MO::kCbc, MA::kSha256, 128),
    row(0x003d, "TLS_RSA_WITH_AES_256_CBC_SHA256", KX::kRsa, AU::kRsa, BC::kAes256, MO::kCbc, MA::kSha256, 256),
    row(0x003e, "TLS_DH_DSS_WITH_AES_128_CBC_SHA256", KX::kDh, AU::kDss, BC::kAes128, MO::kCbc, MA::kSha256, 128),
    row(0x003f, "TLS_DH_RSA_WITH_AES_128_CBC_SHA256", KX::kDh, AU::kRsa, BC::kAes128, MO::kCbc, MA::kSha256, 128),
    row(0x0040, "TLS_DHE_DSS_WITH_AES_128_CBC_SHA256", KX::kDhe, AU::kDss, BC::kAes128, MO::kCbc, MA::kSha256, 128),
    row(0x0041, "TLS_RSA_WITH_CAMELLIA_128_CBC_SHA", KX::kRsa, AU::kRsa, BC::kCamellia128, MO::kCbc, MA::kSha1, 128),
    row(0x0042, "TLS_DH_DSS_WITH_CAMELLIA_128_CBC_SHA", KX::kDh, AU::kDss, BC::kCamellia128, MO::kCbc, MA::kSha1, 128),
    row(0x0043, "TLS_DH_RSA_WITH_CAMELLIA_128_CBC_SHA", KX::kDh, AU::kRsa, BC::kCamellia128, MO::kCbc, MA::kSha1, 128),
    row(0x0044, "TLS_DHE_DSS_WITH_CAMELLIA_128_CBC_SHA", KX::kDhe, AU::kDss, BC::kCamellia128, MO::kCbc, MA::kSha1, 128),
    row(0x0045, "TLS_DHE_RSA_WITH_CAMELLIA_128_CBC_SHA", KX::kDhe, AU::kRsa, BC::kCamellia128, MO::kCbc, MA::kSha1, 128),
    row(0x0046, "TLS_DH_anon_WITH_CAMELLIA_128_CBC_SHA", KX::kDhAnon, AU::kNone, BC::kCamellia128, MO::kCbc, MA::kSha1, 128),
    row(0x0066, "TLS_DHE_DSS_WITH_RC4_128_SHA", KX::kDhe, AU::kDss, BC::kRc4_128, MO::kStream, MA::kSha1, 128),
    row(0x0067, "TLS_DHE_RSA_WITH_AES_128_CBC_SHA256", KX::kDhe, AU::kRsa, BC::kAes128, MO::kCbc, MA::kSha256, 128),
    row(0x0068, "TLS_DH_DSS_WITH_AES_256_CBC_SHA256", KX::kDh, AU::kDss, BC::kAes256, MO::kCbc, MA::kSha256, 256),
    row(0x0069, "TLS_DH_RSA_WITH_AES_256_CBC_SHA256", KX::kDh, AU::kRsa, BC::kAes256, MO::kCbc, MA::kSha256, 256),
    row(0x006a, "TLS_DHE_DSS_WITH_AES_256_CBC_SHA256", KX::kDhe, AU::kDss, BC::kAes256, MO::kCbc, MA::kSha256, 256),
    row(0x006b, "TLS_DHE_RSA_WITH_AES_256_CBC_SHA256", KX::kDhe, AU::kRsa, BC::kAes256, MO::kCbc, MA::kSha256, 256),
    row(0x006c, "TLS_DH_anon_WITH_AES_128_CBC_SHA256", KX::kDhAnon, AU::kNone, BC::kAes128, MO::kCbc, MA::kSha256, 128),
    row(0x006d, "TLS_DH_anon_WITH_AES_256_CBC_SHA256", KX::kDhAnon, AU::kNone, BC::kAes256, MO::kCbc, MA::kSha256, 256),
    row(0x0080, "TLS_GOSTR341094_WITH_28147_CNT_IMIT", KX::kGost, AU::kGost, BC::kGost28147, MO::kStream, MA::kGostImit, 256),
    row(0x0081, "TLS_GOSTR341001_WITH_28147_CNT_IMIT", KX::kGost, AU::kGost, BC::kGost28147, MO::kStream, MA::kGostImit, 256),
    row(0x0084, "TLS_RSA_WITH_CAMELLIA_256_CBC_SHA", KX::kRsa, AU::kRsa, BC::kCamellia256, MO::kCbc, MA::kSha1, 256),
    row(0x0085, "TLS_DH_DSS_WITH_CAMELLIA_256_CBC_SHA", KX::kDh, AU::kDss, BC::kCamellia256, MO::kCbc, MA::kSha1, 256),
    row(0x0086, "TLS_DH_RSA_WITH_CAMELLIA_256_CBC_SHA", KX::kDh, AU::kRsa, BC::kCamellia256, MO::kCbc, MA::kSha1, 256),
    row(0x0087, "TLS_DHE_DSS_WITH_CAMELLIA_256_CBC_SHA", KX::kDhe, AU::kDss, BC::kCamellia256, MO::kCbc, MA::kSha1, 256),
    row(0x0088, "TLS_DHE_RSA_WITH_CAMELLIA_256_CBC_SHA", KX::kDhe, AU::kRsa, BC::kCamellia256, MO::kCbc, MA::kSha1, 256),
    row(0x0089, "TLS_DH_anon_WITH_CAMELLIA_256_CBC_SHA", KX::kDhAnon, AU::kNone, BC::kCamellia256, MO::kCbc, MA::kSha1, 256),
    row(0x008a, "TLS_PSK_WITH_RC4_128_SHA", KX::kPsk, AU::kPsk, BC::kRc4_128, MO::kStream, MA::kSha1, 128),
    row(0x008b, "TLS_PSK_WITH_3DES_EDE_CBC_SHA", KX::kPsk, AU::kPsk, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0x008c, "TLS_PSK_WITH_AES_128_CBC_SHA", KX::kPsk, AU::kPsk, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0x008d, "TLS_PSK_WITH_AES_256_CBC_SHA", KX::kPsk, AU::kPsk, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0x008e, "TLS_DHE_PSK_WITH_RC4_128_SHA", KX::kDhePsk, AU::kPsk, BC::kRc4_128, MO::kStream, MA::kSha1, 128),
    row(0x008f, "TLS_DHE_PSK_WITH_3DES_EDE_CBC_SHA", KX::kDhePsk, AU::kPsk, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0x0090, "TLS_DHE_PSK_WITH_AES_128_CBC_SHA", KX::kDhePsk, AU::kPsk, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0x0091, "TLS_DHE_PSK_WITH_AES_256_CBC_SHA", KX::kDhePsk, AU::kPsk, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0x0092, "TLS_RSA_PSK_WITH_RC4_128_SHA", KX::kRsaPsk, AU::kPsk, BC::kRc4_128, MO::kStream, MA::kSha1, 128),
    row(0x0093, "TLS_RSA_PSK_WITH_3DES_EDE_CBC_SHA", KX::kRsaPsk, AU::kPsk, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0x0094, "TLS_RSA_PSK_WITH_AES_128_CBC_SHA", KX::kRsaPsk, AU::kPsk, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0x0095, "TLS_RSA_PSK_WITH_AES_256_CBC_SHA", KX::kRsaPsk, AU::kPsk, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0x0096, "TLS_RSA_WITH_SEED_CBC_SHA", KX::kRsa, AU::kRsa, BC::kSeed, MO::kCbc, MA::kSha1, 128),
    row(0x0097, "TLS_DH_DSS_WITH_SEED_CBC_SHA", KX::kDh, AU::kDss, BC::kSeed, MO::kCbc, MA::kSha1, 128),
    row(0x0098, "TLS_DH_RSA_WITH_SEED_CBC_SHA", KX::kDh, AU::kRsa, BC::kSeed, MO::kCbc, MA::kSha1, 128),
    row(0x0099, "TLS_DHE_DSS_WITH_SEED_CBC_SHA", KX::kDhe, AU::kDss, BC::kSeed, MO::kCbc, MA::kSha1, 128),
    row(0x009a, "TLS_DHE_RSA_WITH_SEED_CBC_SHA", KX::kDhe, AU::kRsa, BC::kSeed, MO::kCbc, MA::kSha1, 128),
    row(0x009b, "TLS_DH_anon_WITH_SEED_CBC_SHA", KX::kDhAnon, AU::kNone, BC::kSeed, MO::kCbc, MA::kSha1, 128),
    row(0x009c, "TLS_RSA_WITH_AES_128_GCM_SHA256", KX::kRsa, AU::kRsa, BC::kAes128, MO::kGcm, MA::kAead, 128),
    row(0x009d, "TLS_RSA_WITH_AES_256_GCM_SHA384", KX::kRsa, AU::kRsa, BC::kAes256, MO::kGcm, MA::kAead, 256),
    row(0x009e, "TLS_DHE_RSA_WITH_AES_128_GCM_SHA256", KX::kDhe, AU::kRsa, BC::kAes128, MO::kGcm, MA::kAead, 128),
    row(0x009f, "TLS_DHE_RSA_WITH_AES_256_GCM_SHA384", KX::kDhe, AU::kRsa, BC::kAes256, MO::kGcm, MA::kAead, 256),
    row(0x00a0, "TLS_DH_RSA_WITH_AES_128_GCM_SHA256", KX::kDh, AU::kRsa, BC::kAes128, MO::kGcm, MA::kAead, 128),
    row(0x00a1, "TLS_DH_RSA_WITH_AES_256_GCM_SHA384", KX::kDh, AU::kRsa, BC::kAes256, MO::kGcm, MA::kAead, 256),
    row(0x00a2, "TLS_DHE_DSS_WITH_AES_128_GCM_SHA256", KX::kDhe, AU::kDss, BC::kAes128, MO::kGcm, MA::kAead, 128),
    row(0x00a3, "TLS_DHE_DSS_WITH_AES_256_GCM_SHA384", KX::kDhe, AU::kDss, BC::kAes256, MO::kGcm, MA::kAead, 256),
    row(0x00a4, "TLS_DH_DSS_WITH_AES_128_GCM_SHA256", KX::kDh, AU::kDss, BC::kAes128, MO::kGcm, MA::kAead, 128),
    row(0x00a5, "TLS_DH_DSS_WITH_AES_256_GCM_SHA384", KX::kDh, AU::kDss, BC::kAes256, MO::kGcm, MA::kAead, 256),
    row(0x00a6, "TLS_DH_anon_WITH_AES_128_GCM_SHA256", KX::kDhAnon, AU::kNone, BC::kAes128, MO::kGcm, MA::kAead, 128),
    row(0x00a7, "TLS_DH_anon_WITH_AES_256_GCM_SHA384", KX::kDhAnon, AU::kNone, BC::kAes256, MO::kGcm, MA::kAead, 256),
    row(0x00a8, "TLS_PSK_WITH_AES_128_GCM_SHA256", KX::kPsk, AU::kPsk, BC::kAes128, MO::kGcm, MA::kAead, 128),
    row(0x00a9, "TLS_PSK_WITH_AES_256_GCM_SHA384", KX::kPsk, AU::kPsk, BC::kAes256, MO::kGcm, MA::kAead, 256),
    row(0x00aa, "TLS_DHE_PSK_WITH_AES_128_GCM_SHA256", KX::kDhePsk, AU::kPsk, BC::kAes128, MO::kGcm, MA::kAead, 128),
    row(0x00ab, "TLS_DHE_PSK_WITH_AES_256_GCM_SHA384", KX::kDhePsk, AU::kPsk, BC::kAes256, MO::kGcm, MA::kAead, 256),
    row(0x00ac, "TLS_RSA_PSK_WITH_AES_128_GCM_SHA256", KX::kRsaPsk, AU::kPsk, BC::kAes128, MO::kGcm, MA::kAead, 128),
    row(0x00ad, "TLS_RSA_PSK_WITH_AES_256_GCM_SHA384", KX::kRsaPsk, AU::kPsk, BC::kAes256, MO::kGcm, MA::kAead, 256),
    row(0x00ae, "TLS_PSK_WITH_AES_128_CBC_SHA256", KX::kPsk, AU::kPsk, BC::kAes128, MO::kCbc, MA::kSha256, 128),
    row(0x00af, "TLS_PSK_WITH_AES_256_CBC_SHA384", KX::kPsk, AU::kPsk, BC::kAes256, MO::kCbc, MA::kSha384, 256),
    row(0x00b0, "TLS_PSK_WITH_NULL_SHA256", KX::kPsk, AU::kPsk, BC::kNull, MO::kNone, MA::kSha256, 0),
    row(0x00b1, "TLS_PSK_WITH_NULL_SHA384", KX::kPsk, AU::kPsk, BC::kNull, MO::kNone, MA::kSha384, 0),
    row(0x00b2, "TLS_DHE_PSK_WITH_AES_128_CBC_SHA256", KX::kDhePsk, AU::kPsk, BC::kAes128, MO::kCbc, MA::kSha256, 128),
    row(0x00b3, "TLS_DHE_PSK_WITH_AES_256_CBC_SHA384", KX::kDhePsk, AU::kPsk, BC::kAes256, MO::kCbc, MA::kSha384, 256),
    row(0x00b4, "TLS_DHE_PSK_WITH_NULL_SHA256", KX::kDhePsk, AU::kPsk, BC::kNull, MO::kNone, MA::kSha256, 0),
    row(0x00b5, "TLS_DHE_PSK_WITH_NULL_SHA384", KX::kDhePsk, AU::kPsk, BC::kNull, MO::kNone, MA::kSha384, 0),
    row(0x00b6, "TLS_RSA_PSK_WITH_AES_128_CBC_SHA256", KX::kRsaPsk, AU::kPsk, BC::kAes128, MO::kCbc, MA::kSha256, 128),
    row(0x00b7, "TLS_RSA_PSK_WITH_AES_256_CBC_SHA384", KX::kRsaPsk, AU::kPsk, BC::kAes256, MO::kCbc, MA::kSha384, 256),
    row(0x00b8, "TLS_RSA_PSK_WITH_NULL_SHA256", KX::kRsaPsk, AU::kPsk, BC::kNull, MO::kNone, MA::kSha256, 0),
    row(0x00b9, "TLS_RSA_PSK_WITH_NULL_SHA384", KX::kRsaPsk, AU::kPsk, BC::kNull, MO::kNone, MA::kSha384, 0),
    row(0x00ba, "TLS_RSA_WITH_CAMELLIA_128_CBC_SHA256", KX::kRsa, AU::kRsa, BC::kCamellia128, MO::kCbc, MA::kSha256, 128),
    row(0x00bb, "TLS_DH_DSS_WITH_CAMELLIA_128_CBC_SHA256", KX::kDh, AU::kDss, BC::kCamellia128, MO::kCbc, MA::kSha256, 128),
    row(0x00bc, "TLS_DH_RSA_WITH_CAMELLIA_128_CBC_SHA256", KX::kDh, AU::kRsa, BC::kCamellia128, MO::kCbc, MA::kSha256, 128),
    row(0x00bd, "TLS_DHE_DSS_WITH_CAMELLIA_128_CBC_SHA256", KX::kDhe, AU::kDss, BC::kCamellia128, MO::kCbc, MA::kSha256, 128),
    row(0x00be, "TLS_DHE_RSA_WITH_CAMELLIA_128_CBC_SHA256", KX::kDhe, AU::kRsa, BC::kCamellia128, MO::kCbc, MA::kSha256, 128),
    row(0x00bf, "TLS_DH_anon_WITH_CAMELLIA_128_CBC_SHA256", KX::kDhAnon, AU::kNone, BC::kCamellia128, MO::kCbc, MA::kSha256, 128),
    row(0x00c0, "TLS_RSA_WITH_CAMELLIA_256_CBC_SHA256", KX::kRsa, AU::kRsa, BC::kCamellia256, MO::kCbc, MA::kSha256, 256),
    row(0x00c1, "TLS_DH_DSS_WITH_CAMELLIA_256_CBC_SHA256", KX::kDh, AU::kDss, BC::kCamellia256, MO::kCbc, MA::kSha256, 256),
    row(0x00c2, "TLS_DH_RSA_WITH_CAMELLIA_256_CBC_SHA256", KX::kDh, AU::kRsa, BC::kCamellia256, MO::kCbc, MA::kSha256, 256),
    row(0x00c3, "TLS_DHE_DSS_WITH_CAMELLIA_256_CBC_SHA256", KX::kDhe, AU::kDss, BC::kCamellia256, MO::kCbc, MA::kSha256, 256),
    row(0x00c4, "TLS_DHE_RSA_WITH_CAMELLIA_256_CBC_SHA256", KX::kDhe, AU::kRsa, BC::kCamellia256, MO::kCbc, MA::kSha256, 256),
    row(0x00c5, "TLS_DH_anon_WITH_CAMELLIA_256_CBC_SHA256", KX::kDhAnon, AU::kNone, BC::kCamellia256, MO::kCbc, MA::kSha256, 256),
    row(0x00ff, "TLS_EMPTY_RENEGOTIATION_INFO_SCSV", KX::kNull, AU::kNone, BC::kNull, MO::kNone, MA::kNull, 0, true),
    row(0x1301, "TLS_AES_128_GCM_SHA256", KX::kTls13, AU::kAny, BC::kAes128, MO::kGcm, MA::kAead, 128),
    row(0x1302, "TLS_AES_256_GCM_SHA384", KX::kTls13, AU::kAny, BC::kAes256, MO::kGcm, MA::kAead, 256),
    row(0x1303, "TLS_CHACHA20_POLY1305_SHA256", KX::kTls13, AU::kAny, BC::kChaCha20, MO::kPoly1305, MA::kAead, 256),
    row(0x1304, "TLS_AES_128_CCM_SHA256", KX::kTls13, AU::kAny, BC::kAes128, MO::kCcm, MA::kAead, 128),
    row(0x1305, "TLS_AES_128_CCM_8_SHA256", KX::kTls13, AU::kAny, BC::kAes128, MO::kCcm8, MA::kAead, 128),
    row(0x5600, "TLS_FALLBACK_SCSV", KX::kNull, AU::kNone, BC::kNull, MO::kNone, MA::kNull, 0, true),
    row(0xc001, "TLS_ECDH_ECDSA_WITH_NULL_SHA", KX::kEcdh, AU::kEcdsa, BC::kNull, MO::kNone, MA::kSha1, 0),
    row(0xc002, "TLS_ECDH_ECDSA_WITH_RC4_128_SHA", KX::kEcdh, AU::kEcdsa, BC::kRc4_128, MO::kStream, MA::kSha1, 128),
    row(0xc003, "TLS_ECDH_ECDSA_WITH_3DES_EDE_CBC_SHA", KX::kEcdh, AU::kEcdsa, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0xc004, "TLS_ECDH_ECDSA_WITH_AES_128_CBC_SHA", KX::kEcdh, AU::kEcdsa, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0xc005, "TLS_ECDH_ECDSA_WITH_AES_256_CBC_SHA", KX::kEcdh, AU::kEcdsa, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0xc006, "TLS_ECDHE_ECDSA_WITH_NULL_SHA", KX::kEcdhe, AU::kEcdsa, BC::kNull, MO::kNone, MA::kSha1, 0),
    row(0xc007, "TLS_ECDHE_ECDSA_WITH_RC4_128_SHA", KX::kEcdhe, AU::kEcdsa, BC::kRc4_128, MO::kStream, MA::kSha1, 128),
    row(0xc008, "TLS_ECDHE_ECDSA_WITH_3DES_EDE_CBC_SHA", KX::kEcdhe, AU::kEcdsa, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0xc009, "TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA", KX::kEcdhe, AU::kEcdsa, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0xc00a, "TLS_ECDHE_ECDSA_WITH_AES_256_CBC_SHA", KX::kEcdhe, AU::kEcdsa, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0xc00b, "TLS_ECDH_RSA_WITH_NULL_SHA", KX::kEcdh, AU::kRsa, BC::kNull, MO::kNone, MA::kSha1, 0),
    row(0xc00c, "TLS_ECDH_RSA_WITH_RC4_128_SHA", KX::kEcdh, AU::kRsa, BC::kRc4_128, MO::kStream, MA::kSha1, 128),
    row(0xc00d, "TLS_ECDH_RSA_WITH_3DES_EDE_CBC_SHA", KX::kEcdh, AU::kRsa, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0xc00e, "TLS_ECDH_RSA_WITH_AES_128_CBC_SHA", KX::kEcdh, AU::kRsa, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0xc00f, "TLS_ECDH_RSA_WITH_AES_256_CBC_SHA", KX::kEcdh, AU::kRsa, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0xc010, "TLS_ECDHE_RSA_WITH_NULL_SHA", KX::kEcdhe, AU::kRsa, BC::kNull, MO::kNone, MA::kSha1, 0),
    row(0xc011, "TLS_ECDHE_RSA_WITH_RC4_128_SHA", KX::kEcdhe, AU::kRsa, BC::kRc4_128, MO::kStream, MA::kSha1, 128),
    row(0xc012, "TLS_ECDHE_RSA_WITH_3DES_EDE_CBC_SHA", KX::kEcdhe, AU::kRsa, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0xc013, "TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA", KX::kEcdhe, AU::kRsa, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0xc014, "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA", KX::kEcdhe, AU::kRsa, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0xc015, "TLS_ECDH_anon_WITH_NULL_SHA", KX::kEcdhAnon, AU::kNone, BC::kNull, MO::kNone, MA::kSha1, 0),
    row(0xc016, "TLS_ECDH_anon_WITH_RC4_128_SHA", KX::kEcdhAnon, AU::kNone, BC::kRc4_128, MO::kStream, MA::kSha1, 128),
    row(0xc017, "TLS_ECDH_anon_WITH_3DES_EDE_CBC_SHA", KX::kEcdhAnon, AU::kNone, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0xc018, "TLS_ECDH_anon_WITH_AES_128_CBC_SHA", KX::kEcdhAnon, AU::kNone, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0xc019, "TLS_ECDH_anon_WITH_AES_256_CBC_SHA", KX::kEcdhAnon, AU::kNone, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0xc01a, "TLS_SRP_SHA_WITH_3DES_EDE_CBC_SHA", KX::kSrp, AU::kSrp, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0xc01b, "TLS_SRP_SHA_RSA_WITH_3DES_EDE_CBC_SHA", KX::kSrp, AU::kSrp, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0xc01c, "TLS_SRP_SHA_DSS_WITH_3DES_EDE_CBC_SHA", KX::kSrp, AU::kSrp, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0xc01d, "TLS_SRP_SHA_WITH_AES_128_CBC_SHA", KX::kSrp, AU::kSrp, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0xc01e, "TLS_SRP_SHA_RSA_WITH_AES_128_CBC_SHA", KX::kSrp, AU::kSrp, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0xc01f, "TLS_SRP_SHA_DSS_WITH_AES_128_CBC_SHA", KX::kSrp, AU::kSrp, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0xc020, "TLS_SRP_SHA_WITH_AES_256_CBC_SHA", KX::kSrp, AU::kSrp, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0xc021, "TLS_SRP_SHA_RSA_WITH_AES_256_CBC_SHA", KX::kSrp, AU::kSrp, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0xc022, "TLS_SRP_SHA_DSS_WITH_AES_256_CBC_SHA", KX::kSrp, AU::kSrp, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0xc023, "TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA256", KX::kEcdhe, AU::kEcdsa, BC::kAes128, MO::kCbc, MA::kSha256, 128),
    row(0xc024, "TLS_ECDHE_ECDSA_WITH_AES_256_CBC_SHA384", KX::kEcdhe, AU::kEcdsa, BC::kAes256, MO::kCbc, MA::kSha384, 256),
    row(0xc025, "TLS_ECDH_ECDSA_WITH_AES_128_CBC_SHA256", KX::kEcdh, AU::kEcdsa, BC::kAes128, MO::kCbc, MA::kSha256, 128),
    row(0xc026, "TLS_ECDH_ECDSA_WITH_AES_256_CBC_SHA384", KX::kEcdh, AU::kEcdsa, BC::kAes256, MO::kCbc, MA::kSha384, 256),
    row(0xc027, "TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA256", KX::kEcdhe, AU::kRsa, BC::kAes128, MO::kCbc, MA::kSha256, 128),
    row(0xc028, "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA384", KX::kEcdhe, AU::kRsa, BC::kAes256, MO::kCbc, MA::kSha384, 256),
    row(0xc029, "TLS_ECDH_RSA_WITH_AES_128_CBC_SHA256", KX::kEcdh, AU::kRsa, BC::kAes128, MO::kCbc, MA::kSha256, 128),
    row(0xc02a, "TLS_ECDH_RSA_WITH_AES_256_CBC_SHA384", KX::kEcdh, AU::kRsa, BC::kAes256, MO::kCbc, MA::kSha384, 256),
    row(0xc02b, "TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256", KX::kEcdhe, AU::kEcdsa, BC::kAes128, MO::kGcm, MA::kAead, 128),
    row(0xc02c, "TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384", KX::kEcdhe, AU::kEcdsa, BC::kAes256, MO::kGcm, MA::kAead, 256),
    row(0xc02d, "TLS_ECDH_ECDSA_WITH_AES_128_GCM_SHA256", KX::kEcdh, AU::kEcdsa, BC::kAes128, MO::kGcm, MA::kAead, 128),
    row(0xc02e, "TLS_ECDH_ECDSA_WITH_AES_256_GCM_SHA384", KX::kEcdh, AU::kEcdsa, BC::kAes256, MO::kGcm, MA::kAead, 256),
    row(0xc02f, "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256", KX::kEcdhe, AU::kRsa, BC::kAes128, MO::kGcm, MA::kAead, 128),
    row(0xc030, "TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384", KX::kEcdhe, AU::kRsa, BC::kAes256, MO::kGcm, MA::kAead, 256),
    row(0xc031, "TLS_ECDH_RSA_WITH_AES_128_GCM_SHA256", KX::kEcdh, AU::kRsa, BC::kAes128, MO::kGcm, MA::kAead, 128),
    row(0xc032, "TLS_ECDH_RSA_WITH_AES_256_GCM_SHA384", KX::kEcdh, AU::kRsa, BC::kAes256, MO::kGcm, MA::kAead, 256),
    row(0xc033, "TLS_ECDHE_PSK_WITH_RC4_128_SHA", KX::kEcdhePsk, AU::kPsk, BC::kRc4_128, MO::kStream, MA::kSha1, 128),
    row(0xc034, "TLS_ECDHE_PSK_WITH_3DES_EDE_CBC_SHA", KX::kEcdhePsk, AU::kPsk, BC::k3Des, MO::kCbc, MA::kSha1, 112),
    row(0xc035, "TLS_ECDHE_PSK_WITH_AES_128_CBC_SHA", KX::kEcdhePsk, AU::kPsk, BC::kAes128, MO::kCbc, MA::kSha1, 128),
    row(0xc036, "TLS_ECDHE_PSK_WITH_AES_256_CBC_SHA", KX::kEcdhePsk, AU::kPsk, BC::kAes256, MO::kCbc, MA::kSha1, 256),
    row(0xc037, "TLS_ECDHE_PSK_WITH_AES_128_CBC_SHA256", KX::kEcdhePsk, AU::kPsk, BC::kAes128, MO::kCbc, MA::kSha256, 128),
    row(0xc038, "TLS_ECDHE_PSK_WITH_AES_256_CBC_SHA384", KX::kEcdhePsk, AU::kPsk, BC::kAes256, MO::kCbc, MA::kSha384, 256),
    row(0xc039, "TLS_ECDHE_PSK_WITH_NULL_SHA", KX::kEcdhePsk, AU::kPsk, BC::kNull, MO::kNone, MA::kSha1, 0),
    row(0xc03a, "TLS_ECDHE_PSK_WITH_NULL_SHA256", KX::kEcdhePsk, AU::kPsk, BC::kNull, MO::kNone, MA::kSha256, 0),
    row(0xc03b, "TLS_ECDHE_PSK_WITH_NULL_SHA384", KX::kEcdhePsk, AU::kPsk, BC::kNull, MO::kNone, MA::kSha384, 0),
    row(0xc03c, "TLS_RSA_WITH_ARIA_128_CBC_SHA256", KX::kRsa, AU::kRsa, BC::kAria128, MO::kCbc, MA::kSha256, 128),
    row(0xc03d, "TLS_RSA_WITH_ARIA_256_CBC_SHA384", KX::kRsa, AU::kRsa, BC::kAria256, MO::kCbc, MA::kSha384, 256),
    row(0xc044, "TLS_DHE_RSA_WITH_ARIA_128_CBC_SHA256", KX::kDhe, AU::kRsa, BC::kAria128, MO::kCbc, MA::kSha256, 128),
    row(0xc045, "TLS_DHE_RSA_WITH_ARIA_256_CBC_SHA384", KX::kDhe, AU::kRsa, BC::kAria256, MO::kCbc, MA::kSha384, 256),
    row(0xc048, "TLS_ECDHE_ECDSA_WITH_ARIA_128_CBC_SHA256", KX::kEcdhe, AU::kEcdsa, BC::kAria128, MO::kCbc, MA::kSha256, 128),
    row(0xc049, "TLS_ECDHE_ECDSA_WITH_ARIA_256_CBC_SHA384", KX::kEcdhe, AU::kEcdsa, BC::kAria256, MO::kCbc, MA::kSha384, 256),
    row(0xc04c, "TLS_ECDHE_RSA_WITH_ARIA_128_CBC_SHA256", KX::kEcdhe, AU::kRsa, BC::kAria128, MO::kCbc, MA::kSha256, 128),
    row(0xc04d, "TLS_ECDHE_RSA_WITH_ARIA_256_CBC_SHA384", KX::kEcdhe, AU::kRsa, BC::kAria256, MO::kCbc, MA::kSha384, 256),
    row(0xc050, "TLS_RSA_WITH_ARIA_128_GCM_SHA256", KX::kRsa, AU::kRsa, BC::kAria128, MO::kGcm, MA::kAead, 128),
    row(0xc051, "TLS_RSA_WITH_ARIA_256_GCM_SHA384", KX::kRsa, AU::kRsa, BC::kAria256, MO::kGcm, MA::kAead, 256),
    row(0xc052, "TLS_DHE_RSA_WITH_ARIA_128_GCM_SHA256", KX::kDhe, AU::kRsa, BC::kAria128, MO::kGcm, MA::kAead, 128),
    row(0xc053, "TLS_DHE_RSA_WITH_ARIA_256_GCM_SHA384", KX::kDhe, AU::kRsa, BC::kAria256, MO::kGcm, MA::kAead, 256),
    row(0xc05c, "TLS_ECDHE_ECDSA_WITH_ARIA_128_GCM_SHA256", KX::kEcdhe, AU::kEcdsa, BC::kAria128, MO::kGcm, MA::kAead, 128),
    row(0xc05d, "TLS_ECDHE_ECDSA_WITH_ARIA_256_GCM_SHA384", KX::kEcdhe, AU::kEcdsa, BC::kAria256, MO::kGcm, MA::kAead, 256),
    row(0xc060, "TLS_ECDHE_RSA_WITH_ARIA_128_GCM_SHA256", KX::kEcdhe, AU::kRsa, BC::kAria128, MO::kGcm, MA::kAead, 128),
    row(0xc061, "TLS_ECDHE_RSA_WITH_ARIA_256_GCM_SHA384", KX::kEcdhe, AU::kRsa, BC::kAria256, MO::kGcm, MA::kAead, 256),
    row(0xc072, "TLS_ECDHE_ECDSA_WITH_CAMELLIA_128_CBC_SHA256", KX::kEcdhe, AU::kEcdsa, BC::kCamellia128, MO::kCbc, MA::kSha256, 128),
    row(0xc073, "TLS_ECDHE_ECDSA_WITH_CAMELLIA_256_CBC_SHA384", KX::kEcdhe, AU::kEcdsa, BC::kCamellia256, MO::kCbc, MA::kSha384, 256),
    row(0xc076, "TLS_ECDHE_RSA_WITH_CAMELLIA_128_CBC_SHA256", KX::kEcdhe, AU::kRsa, BC::kCamellia128, MO::kCbc, MA::kSha256, 128),
    row(0xc077, "TLS_ECDHE_RSA_WITH_CAMELLIA_256_CBC_SHA384", KX::kEcdhe, AU::kRsa, BC::kCamellia256, MO::kCbc, MA::kSha384, 256),
    row(0xc07a, "TLS_RSA_WITH_CAMELLIA_128_GCM_SHA256", KX::kRsa, AU::kRsa, BC::kCamellia128, MO::kGcm, MA::kAead, 128),
    row(0xc07b, "TLS_RSA_WITH_CAMELLIA_256_GCM_SHA384", KX::kRsa, AU::kRsa, BC::kCamellia256, MO::kGcm, MA::kAead, 256),
    row(0xc07c, "TLS_DHE_RSA_WITH_CAMELLIA_128_GCM_SHA256", KX::kDhe, AU::kRsa, BC::kCamellia128, MO::kGcm, MA::kAead, 128),
    row(0xc07d, "TLS_DHE_RSA_WITH_CAMELLIA_256_GCM_SHA384", KX::kDhe, AU::kRsa, BC::kCamellia256, MO::kGcm, MA::kAead, 256),
    row(0xc086, "TLS_ECDHE_ECDSA_WITH_CAMELLIA_128_GCM_SHA256", KX::kEcdhe, AU::kEcdsa, BC::kCamellia128, MO::kGcm, MA::kAead, 128),
    row(0xc087, "TLS_ECDHE_ECDSA_WITH_CAMELLIA_256_GCM_SHA384", KX::kEcdhe, AU::kEcdsa, BC::kCamellia256, MO::kGcm, MA::kAead, 256),
    row(0xc08a, "TLS_ECDHE_RSA_WITH_CAMELLIA_128_GCM_SHA256", KX::kEcdhe, AU::kRsa, BC::kCamellia128, MO::kGcm, MA::kAead, 128),
    row(0xc08b, "TLS_ECDHE_RSA_WITH_CAMELLIA_256_GCM_SHA384", KX::kEcdhe, AU::kRsa, BC::kCamellia256, MO::kGcm, MA::kAead, 256),
    row(0xc094, "TLS_PSK_WITH_CAMELLIA_128_CBC_SHA256", KX::kPsk, AU::kPsk, BC::kCamellia128, MO::kCbc, MA::kSha256, 128),
    row(0xc095, "TLS_PSK_WITH_CAMELLIA_256_CBC_SHA384", KX::kPsk, AU::kPsk, BC::kCamellia256, MO::kCbc, MA::kSha384, 256),
    row(0xc09c, "TLS_RSA_WITH_AES_128_CCM", KX::kRsa, AU::kRsa, BC::kAes128, MO::kCcm, MA::kAead, 128),
    row(0xc09d, "TLS_RSA_WITH_AES_256_CCM", KX::kRsa, AU::kRsa, BC::kAes256, MO::kCcm, MA::kAead, 256),
    row(0xc09e, "TLS_DHE_RSA_WITH_AES_128_CCM", KX::kDhe, AU::kRsa, BC::kAes128, MO::kCcm, MA::kAead, 128),
    row(0xc09f, "TLS_DHE_RSA_WITH_AES_256_CCM", KX::kDhe, AU::kRsa, BC::kAes256, MO::kCcm, MA::kAead, 256),
    row(0xc0a0, "TLS_RSA_WITH_AES_128_CCM_8", KX::kRsa, AU::kRsa, BC::kAes128, MO::kCcm8, MA::kAead, 128),
    row(0xc0a1, "TLS_RSA_WITH_AES_256_CCM_8", KX::kRsa, AU::kRsa, BC::kAes256, MO::kCcm8, MA::kAead, 256),
    row(0xc0a2, "TLS_DHE_RSA_WITH_AES_128_CCM_8", KX::kDhe, AU::kRsa, BC::kAes128, MO::kCcm8, MA::kAead, 128),
    row(0xc0a3, "TLS_DHE_RSA_WITH_AES_256_CCM_8", KX::kDhe, AU::kRsa, BC::kAes256, MO::kCcm8, MA::kAead, 256),
    row(0xc0a4, "TLS_PSK_WITH_AES_128_CCM", KX::kPsk, AU::kPsk, BC::kAes128, MO::kCcm, MA::kAead, 128),
    row(0xc0a5, "TLS_PSK_WITH_AES_256_CCM", KX::kPsk, AU::kPsk, BC::kAes256, MO::kCcm, MA::kAead, 256),
    row(0xc0a6, "TLS_DHE_PSK_WITH_AES_128_CCM", KX::kDhePsk, AU::kPsk, BC::kAes128, MO::kCcm, MA::kAead, 128),
    row(0xc0a7, "TLS_DHE_PSK_WITH_AES_256_CCM", KX::kDhePsk, AU::kPsk, BC::kAes256, MO::kCcm, MA::kAead, 256),
    row(0xc0a8, "TLS_PSK_WITH_AES_128_CCM_8", KX::kPsk, AU::kPsk, BC::kAes128, MO::kCcm8, MA::kAead, 128),
    row(0xc0a9, "TLS_PSK_WITH_AES_256_CCM_8", KX::kPsk, AU::kPsk, BC::kAes256, MO::kCcm8, MA::kAead, 256),
    row(0xc0aa, "TLS_PSK_DHE_WITH_AES_128_CCM_8", KX::kDhePsk, AU::kPsk, BC::kAes128, MO::kCcm8, MA::kAead, 128),
    row(0xc0ab, "TLS_PSK_DHE_WITH_AES_256_CCM_8", KX::kDhePsk, AU::kPsk, BC::kAes256, MO::kCcm8, MA::kAead, 256),
    row(0xc0ac, "TLS_ECDHE_ECDSA_WITH_AES_128_CCM", KX::kEcdhe, AU::kEcdsa, BC::kAes128, MO::kCcm, MA::kAead, 128),
    row(0xc0ad, "TLS_ECDHE_ECDSA_WITH_AES_256_CCM", KX::kEcdhe, AU::kEcdsa, BC::kAes256, MO::kCcm, MA::kAead, 256),
    row(0xc0ae, "TLS_ECDHE_ECDSA_WITH_AES_128_CCM_8", KX::kEcdhe, AU::kEcdsa, BC::kAes128, MO::kCcm8, MA::kAead, 128),
    row(0xc0af, "TLS_ECDHE_ECDSA_WITH_AES_256_CCM_8", KX::kEcdhe, AU::kEcdsa, BC::kAes256, MO::kCcm8, MA::kAead, 256),
    row(0xcca8, "TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256", KX::kEcdhe, AU::kRsa, BC::kChaCha20, MO::kPoly1305, MA::kAead, 256),
    row(0xcca9, "TLS_ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256", KX::kEcdhe, AU::kEcdsa, BC::kChaCha20, MO::kPoly1305, MA::kAead, 256),
    row(0xccaa, "TLS_DHE_RSA_WITH_CHACHA20_POLY1305_SHA256", KX::kDhe, AU::kRsa, BC::kChaCha20, MO::kPoly1305, MA::kAead, 256),
    row(0xccab, "TLS_PSK_WITH_CHACHA20_POLY1305_SHA256", KX::kPsk, AU::kPsk, BC::kChaCha20, MO::kPoly1305, MA::kAead, 256),
    row(0xccac, "TLS_ECDHE_PSK_WITH_CHACHA20_POLY1305_SHA256", KX::kEcdhePsk, AU::kPsk, BC::kChaCha20, MO::kPoly1305, MA::kAead, 256),
    row(0xccad, "TLS_DHE_PSK_WITH_CHACHA20_POLY1305_SHA256", KX::kDhePsk, AU::kPsk, BC::kChaCha20, MO::kPoly1305, MA::kAead, 256),
    row(0xccae, "TLS_RSA_PSK_WITH_CHACHA20_POLY1305_SHA256", KX::kRsaPsk, AU::kPsk, BC::kChaCha20, MO::kPoly1305, MA::kAead, 256),
    row(0xff85, "TLS_GOSTR341112_256_WITH_28147_CNT_IMIT", KX::kGost, AU::kGost, BC::kGost28147, MO::kStream, MA::kGostImit, 256),
};

static_assert(std::size(kSuites) < 0xffff, "row numbers must fit a u16");

SuiteTraits traits_of(const CipherSuiteInfo& s) {
  SuiteTraits t;
  t.bits = SuiteTraits::kKnown;
  const auto set = [&t](bool on, std::uint16_t bit) {
    if (on) t.bits |= bit;
  };
  set(s.scsv, SuiteTraits::kScsv);
  set(is_rc4(s), SuiteTraits::kRc4);
  set(is_single_des(s), SuiteTraits::kSingleDes);
  set(is_3des(s), SuiteTraits::k3Des);
  set(is_aead(s), SuiteTraits::kAead);
  set(is_cbc(s), SuiteTraits::kCbc);
  set(is_export(s), SuiteTraits::kExport);
  set(is_anonymous(s), SuiteTraits::kAnonymous);
  set(is_null_cipher(s), SuiteTraits::kNullCipher);
  set(is_forward_secret(s), SuiteTraits::kForwardSecret);
  t.aead = aead_kind(s);
  return t;
}

/// Wire id -> registry row, for all 65,536 ids, plus each row's traits.
/// Row numbers count from 1; 0 means unregistered, and traits[0] is the
/// empty word. Static storage, built on first use (128 KiB).
struct SuiteTable {
  std::array<std::uint16_t, 0x10000> row{};
  std::array<SuiteTraits, std::size(kSuites) + 1> traits{};

  SuiteTable() {
    for (std::size_t i = 0; i < std::size(kSuites); ++i) {
      row[kSuites[i].id] = static_cast<std::uint16_t>(i + 1);
      traits[i + 1] = traits_of(kSuites[i]);
    }
  }
};

const SuiteTable& suite_table() {
  static const SuiteTable table;
  return table;
}

const std::unordered_map<std::string_view, const CipherSuiteInfo*>&
name_index() {
  static const auto* index = [] {
    auto* m =
        new std::unordered_map<std::string_view, const CipherSuiteInfo*>();
    m->reserve(std::size(kSuites));
    for (const auto& s : kSuites) m->emplace(s.name, &s);
    return m;
  }();
  return *index;
}

}  // namespace

std::span<const CipherSuiteInfo> all_cipher_suites() { return kSuites; }

const CipherSuiteInfo* find_cipher_suite(std::uint16_t id) {
  const std::uint16_t row = suite_table().row[id];
  return row == 0 ? nullptr : &kSuites[row - 1];
}

SuiteTraits suite_traits(std::uint16_t id) {
  const auto& table = suite_table();
  return table.traits[table.row[id]];
}

const CipherSuiteInfo* find_cipher_suite(std::string_view name) {
  const auto& idx = name_index();
  const auto it = idx.find(name);
  return it == idx.end() ? nullptr : it->second;
}

bool is_aead(const CipherSuiteInfo& s) {
  return s.mode == MO::kGcm || s.mode == MO::kCcm || s.mode == MO::kCcm8 ||
         s.mode == MO::kPoly1305;
}

bool is_cbc(const CipherSuiteInfo& s) { return s.mode == MO::kCbc; }

bool is_rc4(const CipherSuiteInfo& s) {
  return s.cipher == BC::kRc4_40 || s.cipher == BC::kRc4_56 ||
         s.cipher == BC::kRc4_128;
}

bool is_single_des(const CipherSuiteInfo& s) {
  return s.cipher == BC::kDes || s.cipher == BC::kDes40;
}

bool is_3des(const CipherSuiteInfo& s) { return s.cipher == BC::k3Des; }

bool is_export(const CipherSuiteInfo& s) {
  switch (s.kex) {
    case KX::kRsaExport:
    case KX::kDhExport:
    case KX::kDheExport:
    case KX::kDhAnonExport:
    case KX::kKrb5Export:
      return true;
    default:
      break;
  }
  return s.key_bits != 0 && s.key_bits <= 40;
}

bool is_anonymous(const CipherSuiteInfo& s) {
  return (s.kex == KX::kDhAnon || s.kex == KX::kDhAnonExport ||
          s.kex == KX::kEcdhAnon) &&
         !s.scsv;
}

bool is_null_cipher(const CipherSuiteInfo& s) {
  return s.cipher == BC::kNull && !s.scsv;
}

bool is_null_with_null_null(const CipherSuiteInfo& s) { return s.id == 0x0000; }

bool is_forward_secret(const CipherSuiteInfo& s) {
  switch (s.kex) {
    case KX::kDhe:
    case KX::kDheExport:
    case KX::kDhAnon:
    case KX::kDhAnonExport:
    case KX::kEcdhe:
    case KX::kEcdhAnon:
    case KX::kDhePsk:
    case KX::kEcdhePsk:
    case KX::kTls13:
      return true;
    default:
      return false;
  }
}

CipherClass cipher_class(const CipherSuiteInfo& s) {
  if (s.scsv) return CipherClass::kOther;
  if (is_aead(s)) return CipherClass::kAead;
  if (is_cbc(s)) return CipherClass::kCbc;
  if (is_rc4(s)) return CipherClass::kRc4;
  if (is_null_cipher(s)) return CipherClass::kNullCipher;
  return CipherClass::kOther;
}

CipherClass cipher_class(std::uint16_t id) {
  const auto* s = find_cipher_suite(id);
  return s ? cipher_class(*s) : CipherClass::kOther;
}

std::string_view cipher_class_name(CipherClass c) {
  switch (c) {
    case CipherClass::kAead: return "AEAD";
    case CipherClass::kCbc: return "CBC";
    case CipherClass::kRc4: return "RC4";
    case CipherClass::kNullCipher: return "NULL";
    case CipherClass::kOther: return "Other";
  }
  return "?";
}

KexClass kex_class(const CipherSuiteInfo& s) {
  switch (s.kex) {
    case KX::kRsa:
    case KX::kRsaExport:
      return KexClass::kRsa;
    case KX::kDhe:
    case KX::kDheExport:
      return KexClass::kDhe;
    case KX::kEcdhe:
      return KexClass::kEcdhe;
    case KX::kDh:
    case KX::kDhExport:
      return KexClass::kDhStatic;
    case KX::kEcdh:
      return KexClass::kEcdhStatic;
    case KX::kDhAnon:
    case KX::kDhAnonExport:
    case KX::kEcdhAnon:
      return KexClass::kAnon;
    case KX::kPsk:
    case KX::kDhePsk:
    case KX::kRsaPsk:
    case KX::kEcdhePsk:
      return KexClass::kPskFamily;
    case KX::kTls13:
      return KexClass::kTls13;
    default:
      return KexClass::kOther;
  }
}

KexClass kex_class(std::uint16_t id) {
  const auto* s = find_cipher_suite(id);
  return s ? kex_class(*s) : KexClass::kOther;
}

std::string_view kex_class_name(KexClass c) {
  switch (c) {
    case KexClass::kRsa: return "RSA";
    case KexClass::kDhe: return "DHE";
    case KexClass::kEcdhe: return "ECDHE";
    case KexClass::kDhStatic: return "DH";
    case KexClass::kEcdhStatic: return "ECDH";
    case KexClass::kAnon: return "Anon";
    case KexClass::kPskFamily: return "PSK";
    case KexClass::kTls13: return "TLS1.3";
    case KexClass::kOther: return "Other";
  }
  return "?";
}

AeadKind aead_kind(const CipherSuiteInfo& s) {
  if (!is_aead(s)) return AeadKind::kNotAead;
  if (s.mode == MO::kPoly1305) return AeadKind::kChaCha20Poly1305;
  if (s.mode == MO::kCcm || s.mode == MO::kCcm8) return AeadKind::kAesCcm;
  if (s.cipher == BC::kAes128) return AeadKind::kAes128Gcm;
  if (s.cipher == BC::kAes256) return AeadKind::kAes256Gcm;
  return AeadKind::kOtherAead;  // ARIA-GCM / Camellia-GCM
}

AeadKind aead_kind(std::uint16_t id) {
  const auto* s = find_cipher_suite(id);
  return s ? aead_kind(*s) : AeadKind::kNotAead;
}

}  // namespace tls::core
