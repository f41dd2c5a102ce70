// Heavy-hitter memoization for the observe pipeline. The paper's central
// empirical fact is extreme skew — 319.3B Notary connections collapse onto
// ~70k distinct fingerprints — so a real tap sees the same ClientHello
// bytes over and over. The ObserveCache exploits that: it memoizes, per
// distinct record, everything observe_wire derives from the bytes alone
// (the parse result, the advertised-feature flags, the Fig. 5 positions,
// the extracted fingerprint + MD5 hash, and the FingerprintDatabase label
// lookup), so repeated records cost one hash + one byte comparison instead
// of a full parse → canonical-string → MD5 → database-lookup pipeline.
//
// Correctness rules (the determinism contract of DESIGN.md §10):
//   * Keys are the raw record bytes. Lookup hashes with a fast 64-bit FNV-1a
//     and then verifies the FULL bytes against every candidate — a 64-bit
//     collision can never alias two distinct records (it just costs a miss,
//     counted in stats().client.collisions).
//   * Only records whose feature extraction produced zero ParseErrors are
//     memoized, so the error-taxonomy and quarantine paths replay
//     identically on every repetition.
//   * Captures touched by a FaultInjector bypass the cache entirely
//     (PassiveMonitor passes cacheable=false; counted in stats().bypasses).
//   * Eviction is a deterministic whole-generation flush when the side
//     reaches capacity — no recency/frequency state that could depend on
//     thread scheduling.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
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

/// The memoizable server-side derivations. Only built when every lazy
/// accessor succeeds (`build_server_features` returns true); records whose
/// accessors throw stay on the original guarded harvest path so the error
/// bookkeeping replays unchanged.
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
/// notes them (heartbeat, supported_versions, fingerprint extraction); a
/// non-empty `errors` marks the record uncacheable. Single pass over the
/// cipher-suite and extension lists.
void build_client_features(const tls::wire::ClientHello& hello,
                           const tls::fp::FingerprintDatabase* db,
                           bool want_fingerprint, ClientHelloFeatures& out,
                           std::vector<tls::wire::ParseErrorCode>& errors);

/// Derives the server-side feature set; returns false (out unspecified)
/// when any lazy accessor throws — such records are never memoized.
bool build_server_features(const tls::wire::ServerHello& hello,
                           ServerHelloFeatures& out);

/// Hit/miss accounting for one cache side, merged across shards with the
/// same commutative-add contract as every other monitor counter.
struct CacheSideStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t flushes = 0;
  /// 64-bit key matches whose full bytes differed (distinct records forced
  /// onto one key) — proof the verification layer is load-bearing.
  std::uint64_t collisions = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  void merge(const CacheSideStats& other);
};

struct ObserveCacheStats {
  CacheSideStats client;
  CacheSideStats server;
  /// Captures routed around the cache because a FaultInjector touched them.
  std::uint64_t bypasses = 0;
  /// Records that produced ParseErrors during feature extraction and were
  /// therefore not memoized.
  std::uint64_t uncacheable = 0;

  void merge(const ObserveCacheStats& other);
};

struct CachedClient {
  const tls::wire::ClientHello* hello = nullptr;
  const ClientHelloFeatures* features = nullptr;
};

struct CachedServer {
  const tls::wire::ServerHello* hello = nullptr;
  const ServerHelloFeatures* features = nullptr;
};

class ObserveCache {
 public:
  /// Injectable for tests that force 64-bit collisions.
  using HashFn = std::uint64_t (*)(std::span<const std::uint8_t>);

  /// Sized so one generation's slab (~600B/entry/side) stays resident in a
  /// modest last-level cache: in the all-miss regime every insert writes a
  /// full entry, and a slab that spills to DRAM costs more than the parse it
  /// replaces. The paper's skew concentrates real traffic on a few hundred
  /// distinct records, comfortably inside 1024; workloads with wider working
  /// sets can raise StudyOptions::observe_cache_entries.
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit ObserveCache(std::size_t capacity = kDefaultCapacity) {
    set_capacity(capacity);
  }

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Live entries (client + server sides).
  [[nodiscard]] std::size_t size() const {
    return client_size_ + server_size_;
  }

  /// Capacity applies per side; 0 disables the cache. Changing the capacity
  /// drops all entries (without touching eviction stats) and resizes the
  /// probe tables.
  void set_capacity(std::size_t capacity);
  void set_hash_for_test(HashFn hash) { hash_ = hash; }

  /// Looks up a client record. `require_fingerprint` demands an entry whose
  /// fingerprint era matches the observation month: an entry memoized in
  /// the pre-fingerprint era reads as a miss so the caller rebuilds (and
  /// insert_client upgrades it in place).
  [[nodiscard]] std::optional<CachedClient> find_client(
      std::span<const std::uint8_t> record, bool require_fingerprint);
  CachedClient insert_client(std::span<const std::uint8_t> record,
                             const tls::wire::ClientHello& hello,
                             const ClientHelloFeatures& features);

  [[nodiscard]] std::optional<CachedServer> find_server(
      std::span<const std::uint8_t> record);
  CachedServer insert_server(std::span<const std::uint8_t> record,
                             const tls::wire::ServerHello& hello,
                             const ServerHelloFeatures& features);

  // ---- server side with a caller-held hash ----
  // The monitor hashes a server record once and reuses the hash for the
  // lookup and, on a miss, the insert; the insert takes ownership of the
  // freshly parsed hello instead of deep-copying it.
  [[nodiscard]] std::uint64_t hash_bytes(
      std::span<const std::uint8_t> bytes) const {
    return hash_(bytes);
  }

  [[nodiscard]] std::optional<CachedServer> find_server_hashed(
      std::span<const std::uint8_t> record, std::uint64_t hash);
  CachedServer insert_server_hashed(std::span<const std::uint8_t> record,
                                    std::uint64_t hash,
                                    tls::wire::ServerHello&& hello,
                                    const ServerHelloFeatures& features);

  void count_bypass() { ++stats_.bypasses; }
  void count_uncacheable() { ++stats_.uncacheable; }

  [[nodiscard]] const ObserveCacheStats& stats() const { return stats_; }
  ObserveCacheStats& stats() { return stats_; }

  /// FNV-1a over the record bytes — fast, deterministic, seedless.
  static std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

 private:
  // Storage layout, tuned for the whole-generation-flush lifecycle. Entries
  // live in a slot slab (std::deque — pointers into slots stay valid while
  // the slab grows) and are addressed through a flat open-addressed probe
  // table of (hash, head) cells; distinct records sharing a 64-bit key form
  // an intrusive chain via ClientSlot::next, and every chain hit is still
  // verified against the full record bytes before use. A generation flush
  // just zeroes the probe table and resets the live count: the slabs keep
  // their slots, and the next generation reuses them index-for-index by
  // assigning into the retained vector/string capacity. In the
  // all-miss regime (every record distinct) this makes insert + flush
  // nearly allocation-free instead of ~10 heap round-trips per record.
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  struct ClientSlot {
    std::vector<std::uint8_t> key;
    tls::wire::ClientHello hello;
    ClientHelloFeatures features;
    std::uint64_t hash = 0;
    std::uint32_t next = kNilSlot;
  };
  struct ServerSlot {
    std::vector<std::uint8_t> key;
    tls::wire::ServerHello hello;
    ServerHelloFeatures features;
    std::uint64_t hash = 0;
    std::uint32_t next = kNilSlot;
  };
  /// One probe-table cell: head1 is the 1-based head slot of a chain
  /// (0 == empty cell). The cell stores only the high 32 bits of the 64-bit
  /// key as a tag — 8-byte cells keep both tables L2-resident — and chains
  /// are walked comparing the full hash stored in each slot, so distinct
  /// keys that share a tag and a probe path just share a chain. Probe
  /// position comes from the low hash bits; table size is a power of two
  /// ≥ 2× capacity, so the load factor never exceeds 1/2 and linear probing
  /// terminates.
  struct IndexCell {
    std::uint32_t tag = 0;
    std::uint32_t head1 = 0;
  };

  void flush_client();
  void flush_server();

  std::deque<ClientSlot> client_slots_;
  std::deque<ServerSlot> server_slots_;
  std::vector<IndexCell> client_index_;
  std::vector<IndexCell> server_index_;
  std::size_t index_mask_ = 0;
  std::size_t client_size_ = 0;
  std::size_t server_size_ = 0;
  std::size_t capacity_ = 0;
  HashFn hash_ = &fnv1a64;
  ObserveCacheStats stats_;
};

}  // namespace tls::notary
