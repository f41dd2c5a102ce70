// The passive monitor — our ICSI-SSL-Notary equivalent. It maintains the
// monthly aggregates behind every passive figure in the paper, plus the
// fingerprint stream of §4. Two front ends feed it: the byte front end
// (observe_wire, and observe_flights for whole record streams) decodes
// captured records as a live tap would; the struct front end (observe's
// fast path) takes the generator's hellos as built, skipping a
// serialize/parse round trip. Both hand decoded messages and their
// features to one ingest tail, the only place the counting rules live.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/render.hpp"
#include "fingerprint/database.hpp"
#include "fingerprint/duration.hpp"
#include "notary/counters.hpp"
#include "notary/features.hpp"
#include "notary/observe_cache.hpp"
#include "notary/quarantine.hpp"
#include "population/traffic.hpp"
#include "tlscore/cipher_suites.hpp"
#include "tlscore/dates.hpp"
#include "wire/alert.hpp"
#include "wire/errors.hpp"
#include "wire/server_key_exchange.hpp"

namespace tls::faults {
class FaultInjector;
}
namespace tls::telemetry {
class MetricsRegistry;
}
namespace tls::wire {
struct ParsedFlight;
}

namespace tls::notary {

/// Snapshot codec's private-state gateway (defined in snapshot.cpp): the
/// checkpoint journal serializes and rebuilds the monitor's complete
/// absorb-state through this single friend.
struct MonitorSnapshotCodec;

/// Accumulator for the average relative position of the first offered
/// cipher of a class within the client's list (Fig. 5).
struct PositionAccumulator {
  double sum = 0;
  std::uint64_t n = 0;

  void add(double rel) {
    sum += rel;
    ++n;
  }
  /// Shard merge: one double addition per absorbed shard. Merging shards
  /// in a fixed order therefore yields a bit-identical sum regardless of
  /// which threads computed them.
  void merge(const PositionAccumulator& other) {
    sum += other.sum;
    n += other.n;
  }
  [[nodiscard]] double average() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

struct MonthlyStats {
  /// Every capture handed to the monitor this month lands in exactly one of
  /// successful / failures / quarantined; total is their sum.
  std::uint64_t total = 0;
  std::uint64_t successful = 0;
  std::uint64_t failures = 0;
  /// Captures whose ClientHello (or whole capture) was unusable; the bytes
  /// go to the quarantine ring, the code to parse_errors().
  std::uint64_t quarantined = 0;
  /// Captures where only one direction was seen (§3.1's one-sided flows):
  /// still harvested for whatever stats that direction supports.
  std::uint64_t one_sided_client = 0;
  std::uint64_t one_sided_server = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t spec_violations = 0;
  std::uint64_t sslv2_connections = 0;

  // Client-advertised support, counted per connection (Figs. 3, 6, 7, 10).
  std::uint64_t adv_rc4 = 0, adv_des = 0, adv_3des = 0, adv_aead = 0;
  std::uint64_t adv_cbc = 0, adv_export = 0, adv_anon = 0, adv_null = 0;
  std::uint64_t adv_fs = 0;
  std::uint64_t adv_aes128gcm = 0, adv_aes256gcm = 0, adv_chacha = 0,
                adv_ccm = 0;

  // TLS 1.3 deployment (§6.4).
  std::uint64_t adv_tls13 = 0;
  std::uint64_t negotiated_tls13 = 0;

  // Heartbeat (§5.4).
  std::uint64_t heartbeat_offered = 0;
  std::uint64_t heartbeat_negotiated = 0;

  // Extension-deployment tracking (§9: RIE as the renegotiation-attack
  // response, Encrypt-then-MAC as the Lucky-13 response).
  std::uint64_t reneg_info_offered = 0;
  std::uint64_t reneg_info_negotiated = 0;
  std::uint64_t etm_offered = 0;
  std::uint64_t etm_negotiated = 0;
  std::uint64_t ems_offered = 0;
  std::uint64_t ems_negotiated = 0;
  std::uint64_t sni_offered = 0;
  std::uint64_t session_ticket_offered = 0;
  /// Abbreviated (resumed) pre-1.3 handshakes: non-empty client session id
  /// echoed verbatim by the server.
  std::uint64_t resumed = 0;

  /// Server selected RC4 although the client offered AEAD suites — the
  /// bankmellat-style outdated-choice misconfiguration of §5.3/§7.3.
  std::uint64_t rc4_despite_aead = 0;

  // Weak-suite negotiation residuals (§5.5, §5.6, §6.1, §6.2).
  std::uint64_t negotiated_3des = 0;
  std::uint64_t negotiated_export = 0;
  std::uint64_t negotiated_anon = 0;
  std::uint64_t negotiated_null = 0;
  std::uint64_t negotiated_null_with_null_null = 0;

  // Fig. 5 accumulators.
  PositionAccumulator pos_aead, pos_cbc, pos_rc4, pos_des, pos_3des;

  /// Distinct fingerprints seen this month with class-support flags
  /// (Fig. 4). Bit 0: RC4, 1: DES, 2: 3DES, 3: AEAD, 4: CBC.
  std::unordered_map<std::string, std::uint8_t> fingerprints;

  // ---- hot-path counter increments (flat storage, see counters.hpp) ----
  void count_parse_error(tls::wire::ParseErrorCode code) {
    parse_error_counts_.add(code);
  }
  void count_version(std::uint16_t version) { version_counts_.add(version); }
  void count_class(tls::core::CipherClass cls) { class_counts_.add(cls); }
  void count_aead(tls::core::AeadKind kind) { aead_counts_.add(kind); }
  void count_kex(tls::core::KexClass cls) { kex_counts_.add(cls); }
  void count_group(std::uint16_t group) { group_counts_.add(group); }
  void count_adv_tls13_version(std::uint16_t v) { tls13_version_counts_.add(v); }
  void count_alert(std::uint8_t description) { alert_counts_.add(description); }

  // ---- render-time sorted-map views (byte-identical to the former
  //      std::map fields of the same names) ----
  /// Record-level parse failures observed this month, by code (includes
  /// non-fatal ones on otherwise-accepted connections).
  [[nodiscard]] std::map<tls::wire::ParseErrorCode, std::uint64_t>
  parse_errors() const {
    return parse_error_counts_.to_map();
  }
  /// Negotiated protocol versions (wire values; TLS 1.3 drafts collapse to
  /// their wire value; SSLv2 recorded as 0x0002).
  [[nodiscard]] std::map<std::uint16_t, std::uint64_t> negotiated_version()
      const {
    return version_counts_.to_map();
  }
  /// Negotiated cipher class (Fig. 2).
  [[nodiscard]] std::map<tls::core::CipherClass, std::uint64_t>
  negotiated_class() const {
    return class_counts_.to_map();
  }
  /// Negotiated AEAD breakdown (Fig. 9).
  [[nodiscard]] std::map<tls::core::AeadKind, std::uint64_t> negotiated_aead()
      const {
    return aead_counts_.to_map();
  }
  /// Negotiated key-exchange family (Fig. 8).
  [[nodiscard]] std::map<tls::core::KexClass, std::uint64_t> negotiated_kex()
      const {
    return kex_counts_.to_map();
  }
  /// Negotiated named group (§6.3.3).
  [[nodiscard]] std::map<std::uint16_t, std::uint64_t> negotiated_group()
      const {
    return group_counts_.to_map();
  }
  /// Advertised TLS 1.3 supported_versions values (§6.4).
  [[nodiscard]] std::map<std::uint16_t, std::uint64_t> adv_tls13_versions()
      const {
    return tls13_version_counts_.to_map();
  }
  /// Fatal alerts observed on failed handshakes, by description.
  [[nodiscard]] std::map<std::uint8_t, std::uint64_t> alerts() const {
    return alert_counts_.to_map();
  }

  // ---- point lookups (no map materialization) ----
  [[nodiscard]] std::uint64_t parse_error_count(
      tls::wire::ParseErrorCode code) const {
    return parse_error_counts_.count(code);
  }
  [[nodiscard]] std::uint64_t negotiated_version_count(
      std::uint16_t version) const {
    return version_counts_.count(version);
  }
  [[nodiscard]] std::uint64_t negotiated_class_count(
      tls::core::CipherClass cls) const {
    return class_counts_.count(cls);
  }
  [[nodiscard]] std::uint64_t negotiated_aead_count(
      tls::core::AeadKind kind) const {
    return aead_counts_.count(kind);
  }
  [[nodiscard]] std::uint64_t negotiated_kex_count(
      tls::core::KexClass cls) const {
    return kex_counts_.count(cls);
  }
  [[nodiscard]] std::uint64_t negotiated_group_count(
      std::uint16_t group) const {
    return group_counts_.count(group);
  }
  [[nodiscard]] std::uint64_t adv_tls13_version_count(
      std::uint16_t version) const {
    return tls13_version_counts_.count(version);
  }
  [[nodiscard]] std::uint64_t alert_count(std::uint8_t description) const {
    return alert_counts_.count(description);
  }

  /// Connections whose ClientHello parsed — the denominator for every
  /// client-advertised percentage. Quarantined captures carry no features,
  /// so excluding them keeps aggregates unbiased under unbiased loss (and
  /// equal to total when nothing was quarantined).
  [[nodiscard]] std::uint64_t accepted() const { return successful + failures; }

  [[nodiscard]] double pct(std::uint64_t x) const {
    return accepted() == 0 ? 0.0
                           : 100.0 * static_cast<double>(x) /
                                 static_cast<double>(accepted());
  }

  /// Shard merge: adds every counter, folds every keyed counter per key,
  /// and ORs fingerprint flag-maps. All integer/flag folds are commutative;
  /// the only floating-point state (PositionAccumulators) merges with one
  /// addition per shard, so merging in a fixed shard order reproduces the
  /// serial-sharded result bit for bit.
  void merge(const MonthlyStats& other);

 private:
  friend struct MonitorSnapshotCodec;

  EnumCounterArray<tls::wire::ParseErrorCode, tls::wire::kParseErrorCodeCount>
      parse_error_counts_;
  EnumCounterArray<tls::core::CipherClass, tls::core::kCipherClassCount>
      class_counts_;
  EnumCounterArray<tls::core::AeadKind, tls::core::kAeadKindCount>
      aead_counts_;
  EnumCounterArray<tls::core::KexClass, tls::core::kKexClassCount>
      kex_counts_;
  SmallCounterMap<std::uint16_t> version_counts_;
  SmallCounterMap<std::uint16_t> group_counts_;
  SmallCounterMap<std::uint16_t> tls13_version_counts_;
  SmallCounterMap<std::uint8_t> alert_counts_;
};

class PassiveMonitor {
 public:
  /// `database` (optional) enables labeled-coverage accounting (Table 2).
  explicit PassiveMonitor(const tls::fp::FingerprintDatabase* database = nullptr)
      : database_(database) {}

  /// Convenience wrapper: feeds one generated connection to the monitor.
  /// With no fault injector attached, a documented fast path harvests the
  /// already-built structs directly — serializing and re-parsing them would
  /// be a pure round trip (the codecs are inverses; proven byte-identical
  /// by test). With an injector attached, the event is serialized, run
  /// through the chaos tap, and ingested via observe_wire.
  void observe(const tls::population::ConnectionEvent& event);

  /// Span entry point used by the sharded study runner: observe() per
  /// event, in order.
  void observe_span(std::span<const tls::population::ConnectionEvent> events);

  /// The raw-tap entry point. `server_key_exchange_record` may be empty
  /// (RSA key transport, TLS 1.3, or failed handshakes). Never throws on
  /// hostile input: unparseable ClientHellos quarantine the capture, and
  /// record-level failures elsewhere are counted per stage and code.
  void observe_wire(tls::core::Month month, const tls::core::Date& day,
                    std::span<const std::uint8_t> client_hello_record,
                    std::span<const std::uint8_t> server_hello_record,
                    std::span<const std::uint8_t> server_key_exchange_record,
                    bool success, bool used_fallback = false,
                    std::span<const std::uint8_t> alert_record = {});

  /// Full-transcript entry point: parses both directions' record streams
  /// (hellos, ServerKeyExchange, alerts, ChangeCipherSpec) and applies the
  /// §5.5 establishment criterion — both sides sent ChangeCipherSpec.
  /// Never throws on hostile input: corrupt streams are salvaged up to the
  /// first bad record, one-sided captures are partially harvested, and
  /// captures with no usable hello are quarantined.
  void observe_flights(tls::core::Month month, const tls::core::Date& day,
                       std::span<const std::uint8_t> client_stream,
                       std::span<const std::uint8_t> server_stream);

  /// Attaches a chaos tap: observe() runs every serialized record through
  /// `injector` before ingesting it. nullptr (default) detaches; the
  /// fault-free path is untouched either way.
  void set_fault_injector(tls::faults::FaultInjector* injector) {
    injector_ = injector;
  }

  /// Records an SSLv2 CLIENT-HELLO connection (§5.1 residue).
  void observe_sslv2(tls::core::Month month);

  /// Adds this monitor's lifetime ingest-path split (fast, byte, SSLv2)
  /// and its fingerprint memo's lookups and hits to `registry`, as the
  /// tls_repro_notary_* counters. The study folds each shard monitor's
  /// counts this way and the daemon each shard's; the counts are plain
  /// integers, never encoded, absorbed or compared, so they cannot
  /// perturb any aggregate the monitor exports.
  void collect_metrics(tls::telemetry::MetricsRegistry& registry) const;

  /// Frees the fingerprint memo and the per-capture scratch, for a monitor
  /// that is kept only to be absorbed or encoded. It may keep observing:
  /// the scratch regrows and the memo refills, and no aggregate changes.
  void release_scratch();

  /// The fingerprint memo's lifetime lookups and hits.
  [[nodiscard]] const FingerprintMemo& fingerprint_memo() const {
    return fp_memo_;
  }

  /// Shard merge: folds another monitor's entire state (monthly stats,
  /// duration tracker, dataset tallies, error taxonomy, quarantine ring)
  /// into this one. Absorbing per-shard monitors in a fixed (month, shard)
  /// order makes the result independent of which threads ran the shards —
  /// the determinism contract of the parallel study runner.
  void absorb(const PassiveMonitor& other);

  [[nodiscard]] const std::map<tls::core::Month, MonthlyStats>& months()
      const {
    return months_;
  }
  [[nodiscard]] const MonthlyStats* month(tls::core::Month m) const;

  /// §4.1 fingerprint lifetime stream (active from fp_start()).
  [[nodiscard]] const tls::fp::DurationTracker& durations() const {
    return durations_;
  }

  /// Month the monitor's fingerprint features became available (§4.0.1:
  /// the Notary gained the fields in Feb 2014; usable from Oct 2014).
  [[nodiscard]] static tls::core::Month fp_start() {
    return tls::core::Month(2014, 10);
  }

  /// Kept for `perfbench/` until the next `[benchmark]` PR. Does nothing.
  void set_observe_cache_capacity(std::size_t) {}
  /// Kept for `perfbench/` until the next `[benchmark]` PR. All zero.
  [[nodiscard]] ObserveCacheStats observe_cache_stats() const { return {}; }
  /// Test seam: disabling forces observe() onto the serialize→parse byte
  /// path even without a fault injector.
  void set_fast_observe(bool enabled) { fast_observe_ = enabled; }

  // ---- dataset-wide tallies ----
  [[nodiscard]] std::uint64_t total_connections() const { return total_; }
  [[nodiscard]] std::uint64_t fingerprintable_connections() const {
    return fingerprintable_;
  }
  [[nodiscard]] const std::map<tls::fp::SoftwareClass, std::uint64_t>&
  labeled_connections_by_class() const {
    return labeled_by_class_;
  }
  [[nodiscard]] std::uint64_t labeled_connections() const {
    std::uint64_t n = 0;
    for (const auto& [cls, c] : labeled_by_class_) n += c;
    return n;
  }
  /// Total record parse failures across all stages (legacy name; equals
  /// errors().total()).
  [[nodiscard]] std::uint64_t malformed_hellos() const {
    return taxonomy_.total();
  }

  // ---- error observability ----
  [[nodiscard]] const ErrorTaxonomy& errors() const { return taxonomy_; }
  [[nodiscard]] const QuarantineRing& quarantine() const {
    return quarantine_;
  }

 private:
  friend struct MonitorSnapshotCodec;

  MonthlyStats& stats(tls::core::Month m) { return months_[m]; }

  /// Records one parse failure: taxonomy counters, the month's per-code
  /// counters, and the offending bytes into the quarantine ring.
  void note_error(tls::core::Month m, IngestStage stage,
                  tls::wire::ParseErrorCode code,
                  std::span<const std::uint8_t> bytes);
  /// Counts a capture rejected outright into the month's partition
  /// (total = successful + failures + quarantined stays exact).
  void quarantine_capture(tls::core::Month m);
  /// Partial harvest of a server-direction-only capture.
  void observe_server_only(tls::core::Month m,
                           const tls::wire::ParsedFlight& flight);

  /// The struct front end, observe()'s fast path; returns false — having
  /// recorded nothing — on a hello the byte path's parse would reject.
  bool observe_event_fast(const tls::population::ConnectionEvent& event);

  /// The bytes a note quarantines for one record: the record as captured,
  /// or, for a message a front end holds decoded, its record
  /// serialization, made only when a note is due. Neither, or a message
  /// too large to serialize as one record: no bytes.
  template <class Message>
  struct RecordBytes {
    std::span<const std::uint8_t> captured = {};
    const Message* decoded = nullptr;
  };
  template <class Message>
  std::span<const std::uint8_t> bytes_of(const RecordBytes<Message>& record);

  /// Builds `hello`'s features into scratch_features_ and notes each
  /// corrupt extension body at IngestStage::kClientHello.
  void harvest_client(tls::core::Month m, const tls::wire::ClientHello& hello,
                      RecordBytes<tls::wire::ClientHello> record);

  /// The one ingest tail behind every front end: counts a capture whose
  /// ClientHello decoded, with `cf` its harvest_client features. `sh` is
  /// null when no ServerHello decoded. The group comes from the key_share,
  /// else `ske_group`, else `ske_record`, parsed only once the count
  /// reaches it.
  void ingest(tls::core::Month m, const tls::core::Date& day,
              const tls::wire::ClientHello& hello,
              const ClientHelloFeatures& cf, const tls::wire::ServerHello* sh,
              RecordBytes<tls::wire::ServerHello> server_bytes,
              std::optional<std::uint16_t> ske_group,
              std::span<const std::uint8_t> ske_record,
              const std::optional<tls::wire::Alert>& alert, bool success,
              bool used_fallback);

  /// Applies extracted client features to the month (pure increments).
  void apply_client_features(MonthlyStats& s, tls::core::Month m,
                             const tls::core::Date& day,
                             const ClientHelloFeatures& f);
  /// Builds a successful handshake's server features and counts them in
  /// ServerField order, up to the field that failed. `hello`/`cf` are null
  /// for a server-only capture, which skips the client-dependent counts.
  void apply_server_features(MonthlyStats& s, tls::core::Month m,
                             const tls::wire::ClientHello* hello,
                             const ClientHelloFeatures* cf,
                             const tls::wire::ServerHello& sh,
                             RecordBytes<tls::wire::ServerHello> server_bytes,
                             std::optional<std::uint16_t> ske_group,
                             std::span<const std::uint8_t> ske_record);

  const tls::fp::FingerprintDatabase* database_;
  std::map<tls::core::Month, MonthlyStats> months_;
  tls::fp::DurationTracker durations_;
  std::uint64_t total_ = 0;
  std::uint64_t fingerprintable_ = 0;
  std::map<tls::fp::SoftwareClass, std::uint64_t> labeled_by_class_;
  ErrorTaxonomy taxonomy_;
  QuarantineRing quarantine_;
  tls::faults::FaultInjector* injector_ = nullptr;

  bool fast_observe_ = true;
  // Ingest-path split, reported by collect_metrics.
  std::uint64_t fast_path_ = 0;
  std::uint64_t byte_path_ = 0;
  std::uint64_t sslv2_path_ = 0;
  // Reusable scratch for the per-connection hot path (a monitor is
  // single-threaded; shard parallelism uses one monitor per shard). The
  // records decode into these in place, so observe_wire allocates nothing
  // once they have grown; each holds a valid message only after a parse
  // that returned, never after one that threw.
  tls::wire::ClientHello scratch_hello_;
  tls::wire::ServerHello scratch_server_hello_;
  tls::wire::EcdheServerKeyExchange scratch_ske_;
  ClientHelloFeatures scratch_features_;
  // Never encoded in a snapshot, absorbed or compared: a hit returns what
  // a miss computes.
  FingerprintMemo fp_memo_;
  std::vector<tls::wire::ParseErrorCode> scratch_errors_;
  std::vector<std::uint8_t> buf_client_, buf_server_, buf_ske_, buf_alert_;
  std::vector<std::uint8_t> buf_note_;
};

/// Flattens the monitor's per-month partition + parse-error counters into
/// rows for tls::analysis::render_loss_table (one row per observed month,
/// chronological).
[[nodiscard]] std::vector<tls::analysis::LossRow> loss_rows(
    const PassiveMonitor& monitor);

}  // namespace tls::notary
