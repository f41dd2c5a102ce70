// Per-record feature extraction for the passive monitor: everything
// observe_wire and the struct fast path derive from one ClientHello or
// ServerHello that is a pure function of the hello (plus the immutable
// fingerprint database). The monitor builds these into reusable scratch and
// applies them to the month's aggregates.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fingerprint/database.hpp"
#include "fingerprint/fingerprint.hpp"
#include "tlscore/cipher_suites.hpp"
#include "wire/client_hello.hpp"
#include "wire/errors.hpp"
#include "wire/server_hello.hpp"

namespace tls::notary {

/// Fingerprint support-flag bits used in MonthlyStats::fingerprints.
/// Bit 0: RC4, 1: DES, 2: 3DES, 3: AEAD, 4: CBC.
inline constexpr std::uint8_t kFpRc4 = 1;
inline constexpr std::uint8_t kFpDes = 2;
inline constexpr std::uint8_t kFp3Des = 4;
inline constexpr std::uint8_t kFpAead = 8;
inline constexpr std::uint8_t kFpCbc = 16;

/// Everything the monitor harvests from a ClientHello record that is a pure
/// function of the bytes (plus the immutable fingerprint database).
struct ClientHelloFeatures {
  // Advertised cipher classes (Figs. 3, 6, 7, 10).
  bool adv_rc4 = false, adv_des = false, adv_3des = false, adv_aead = false;
  bool adv_cbc = false, adv_export = false, adv_anon = false,
       adv_null = false;
  bool adv_fs = false;
  bool adv_aes128gcm = false, adv_aes256gcm = false, adv_chacha = false,
       adv_ccm = false;

  bool heartbeat_offered = false;
  bool reneg_info_offered = false, etm_offered = false, ems_offered = false;
  bool sni_offered = false, session_ticket_offered = false;

  // TLS 1.3 advertisement (§6.4); one entry per matching supported_versions
  // element, duplicates preserved.
  bool adv_tls13 = false;
  std::vector<std::uint16_t> tls13_versions;

  // Fig. 5 relative first positions.
  std::optional<double> pos_aead, pos_cbc, pos_rc4, pos_des, pos_3des;

  // Fingerprint stream (§4). Computed only when the observation month is in
  // the fingerprintable era; fingerprint_computed distinguishes "not
  // requested" from "extraction failed" (the latter also records an error).
  bool fingerprint_computed = false;
  tls::fp::Fingerprint fp;
  std::string fp_hash;
  std::uint8_t fp_flags = 0;
  std::optional<tls::fp::SoftwareClass> label_cls;

  /// Clears to the freshly-constructed state while keeping vector/string
  /// capacity — the monitor reuses one instance as build scratch.
  void reset();
};

/// The server-side derivations. Only used when every lazy accessor
/// succeeds (`build_server_features` returns true); records whose accessors
/// throw take the guarded harvest path so their error bookkeeping stays
/// exact.
struct ServerHelloFeatures {
  std::uint16_t version = 0;
  std::optional<std::uint16_t> key_share_group;
  bool heartbeat_present = false;
  bool reneg = false, etm = false, ems = false;
  /// Registry entry for the negotiated suite (static storage; stable).
  const tls::core::CipherSuiteInfo* suite = nullptr;
};

/// Derives every client-side feature from one parsed hello. Lazy-accessor
/// ParseErrors are appended to `errors` in the same order the byte path
/// notes them (heartbeat, supported_versions, fingerprint extraction). Single
/// pass over the cipher-suite and extension lists.
void build_client_features(const tls::wire::ClientHello& hello,
                           const tls::fp::FingerprintDatabase* db,
                           bool want_fingerprint, ClientHelloFeatures& out,
                           std::vector<tls::wire::ParseErrorCode>& errors);

/// Derives the server-side feature set; returns false (out unspecified)
/// when any lazy accessor throws.
bool build_server_features(const tls::wire::ServerHello& hello,
                           ServerHelloFeatures& out);

}  // namespace tls::notary
