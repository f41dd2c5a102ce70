// Per-record feature extraction for the passive monitor: everything its
// front ends derive from one ClientHello or ServerHello that is a pure
// function of the hello (plus the immutable fingerprint database). The
// monitor builds these into reusable scratch and its one ingest tail
// applies them to the month's aggregates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
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
  /// Code of a present but corrupt heartbeat body (heartbeat_offered is
  /// then false): negotiation against a server heartbeat is unknowable.
  std::optional<tls::wire::ParseErrorCode> heartbeat_error;
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
  /// MD5 hex of fp's canonical text, rewritten in place, so a reused
  /// instance takes a memo hit without allocating.
  std::string fp_hash;
  std::uint8_t fp_flags = 0;
  std::optional<tls::fp::SoftwareClass> label_cls;

  /// Clears to the freshly-constructed state while keeping vector/string
  /// capacity — the monitor reuses one instance as build scratch.
  void reset();
};

/// The lazily parsed ServerHello fields, in the order the monitor counts
/// them. A corrupt extension body stops the harvest at its field.
enum class ServerField : std::uint8_t { kVersion, kKeyShare, kHeartbeat, kNone };

/// The server-side derivations, recorded as far as they parse.
struct ServerHelloFeatures {
  /// The field whose accessor threw (kNone: every field parsed) and its
  /// code. Fields before it are valid; suite and reneg/etm/ems never throw
  /// and are always valid.
  ServerField failed_at = ServerField::kNone;
  tls::wire::ParseErrorCode error{};
  std::uint16_t version = 0;
  std::optional<std::uint16_t> key_share_group;
  bool heartbeat_present = false;
  bool reneg = false, etm = false, ems = false;
  /// Registry entry for the negotiated suite (static storage; stable).
  const tls::core::CipherSuiteInfo* suite = nullptr;
};

/// Fingerprint -> (MD5 hex of its canonical text, database label). The
/// fingerprint is what repeats across captures (every hello carries a fresh
/// random, so record bytes never do), so the canonical text, MD5 and the
/// label run once per distinct fingerprint instead of once per capture.
/// The key is the four GREASE-stripped lists themselves: a hit hashes
/// their bytes and compares them, and writes no text. A hit returns
/// exactly what a miss computes, so nothing a monitor exports depends on
/// the memo's contents. Bounded: an insert into a full table clears it
/// first, a deterministic flush. A memo serves one fingerprint database.
class FingerprintMemo {
 public:
  static constexpr std::size_t kCapacity = 4096;

  struct Entry {
    std::string hash;
    std::optional<tls::fp::SoftwareClass> cls;
  };

  /// `capacity` is for tests (a capacity of 1 flushes on every insert);
  /// every monitor uses kCapacity.
  explicit FingerprintMemo(std::size_t capacity = kCapacity)
      : capacity_(capacity) {}

  /// The entry for `fp`; counts one lookup (and a hit). On a miss, writes
  /// the canonical text, MD5s it, looks the hash up in `db` (when not
  /// null) and stores the result. The reference stays valid until the next
  /// resolve() or release().
  const Entry& resolve(const tls::fp::Fingerprint& fp,
                       const tls::fp::FingerprintDatabase* db);
  /// Frees the table's and the miss scratch's memory. The counters stay.
  void release();

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }

 private:
  /// tls::core::word_hash64 chained over the four lists' bytes, each
  /// list's length mixed into its seed.
  struct KeyHash {
    std::size_t operator()(const tls::fp::Fingerprint& fp) const;
  };

  std::size_t capacity_;
  std::unordered_map<tls::fp::Fingerprint, Entry, KeyHash> entries_;
  /// A miss's canonical text, reused across misses.
  std::string canonical_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
};

/// Derives every client-side feature from one parsed hello. Lazy-accessor
/// ParseErrors are appended to `errors` in the same order the byte path
/// notes them (heartbeat, supported_versions, fingerprint extraction). Single
/// pass over the cipher-suite and extension lists. The fingerprint's hash
/// and label come from `memo.resolve`, computed (canonical text, MD5, then
/// `db`) on a miss.
void build_client_features(const tls::wire::ClientHello& hello,
                           const tls::fp::FingerprintDatabase* db,
                           FingerprintMemo& memo, bool want_fingerprint,
                           ClientHelloFeatures& out,
                           std::vector<tls::wire::ParseErrorCode>& errors);

/// Derives the server-side feature set in ServerField order, stopping at
/// the first lazy accessor that throws.
ServerHelloFeatures build_server_features(const tls::wire::ServerHello& hello);

}  // namespace tls::notary
