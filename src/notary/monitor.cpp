#include "notary/monitor.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "faults/injector.hpp"
#include "fingerprint/fingerprint.hpp"
#include "telemetry/metrics.hpp"
#include "tlscore/grease.hpp"
#include "wire/server_hello.hpp"
#include "wire/alert.hpp"
#include "wire/server_key_exchange.hpp"
#include "wire/transcript.hpp"
#include "handshake/negotiate.hpp"

namespace tls::notary {

using tls::core::CipherClass;
using tls::core::CipherSuiteInfo;
using tls::core::find_cipher_suite;
using tls::core::Month;
using tls::wire::ClientHello;
using tls::wire::ServerHello;

namespace {

bool is_tls13_version(std::uint16_t version) {
  return version == 0x0304 || (version & 0xff00) == 0x7f00 ||
         (version & 0xff00) == 0x7e00;
}

}  // namespace

void MonthlyStats::merge(const MonthlyStats& other) {
  total += other.total;
  successful += other.successful;
  failures += other.failures;
  quarantined += other.quarantined;
  one_sided_client += other.one_sided_client;
  one_sided_server += other.one_sided_server;
  parse_error_counts_.merge(other.parse_error_counts_);
  fallbacks += other.fallbacks;
  spec_violations += other.spec_violations;
  sslv2_connections += other.sslv2_connections;

  version_counts_.merge(other.version_counts_);
  class_counts_.merge(other.class_counts_);
  aead_counts_.merge(other.aead_counts_);
  kex_counts_.merge(other.kex_counts_);
  group_counts_.merge(other.group_counts_);

  adv_rc4 += other.adv_rc4;
  adv_des += other.adv_des;
  adv_3des += other.adv_3des;
  adv_aead += other.adv_aead;
  adv_cbc += other.adv_cbc;
  adv_export += other.adv_export;
  adv_anon += other.adv_anon;
  adv_null += other.adv_null;
  adv_fs += other.adv_fs;
  adv_aes128gcm += other.adv_aes128gcm;
  adv_aes256gcm += other.adv_aes256gcm;
  adv_chacha += other.adv_chacha;
  adv_ccm += other.adv_ccm;

  adv_tls13 += other.adv_tls13;
  tls13_version_counts_.merge(other.tls13_version_counts_);
  negotiated_tls13 += other.negotiated_tls13;

  heartbeat_offered += other.heartbeat_offered;
  heartbeat_negotiated += other.heartbeat_negotiated;

  reneg_info_offered += other.reneg_info_offered;
  reneg_info_negotiated += other.reneg_info_negotiated;
  etm_offered += other.etm_offered;
  etm_negotiated += other.etm_negotiated;
  ems_offered += other.ems_offered;
  ems_negotiated += other.ems_negotiated;
  sni_offered += other.sni_offered;
  session_ticket_offered += other.session_ticket_offered;
  resumed += other.resumed;

  alert_counts_.merge(other.alert_counts_);
  rc4_despite_aead += other.rc4_despite_aead;

  negotiated_3des += other.negotiated_3des;
  negotiated_export += other.negotiated_export;
  negotiated_anon += other.negotiated_anon;
  negotiated_null += other.negotiated_null;
  negotiated_null_with_null_null += other.negotiated_null_with_null_null;

  pos_aead.merge(other.pos_aead);
  pos_cbc.merge(other.pos_cbc);
  pos_rc4.merge(other.pos_rc4);
  pos_des.merge(other.pos_des);
  pos_3des.merge(other.pos_3des);

  // Flag OR is commutative: the merged flag-map is the same set no matter
  // how the observations were split across shards.
  for (const auto& [hash, flags] : other.fingerprints) {
    fingerprints[hash] |= flags;
  }
}

void PassiveMonitor::absorb(const PassiveMonitor& other) {
  for (const auto& [m, s] : other.months_) {
    months_[m].merge(s);
  }
  durations_.merge(other.durations_);
  total_ += other.total_;
  fingerprintable_ += other.fingerprintable_;
  for (const auto& [cls, n] : other.labeled_by_class_) {
    labeled_by_class_[cls] += n;
  }
  taxonomy_.merge(other.taxonomy_);
  quarantine_.absorb(other.quarantine_);
}

const MonthlyStats* PassiveMonitor::month(Month m) const {
  const auto it = months_.find(m);
  return it == months_.end() ? nullptr : &it->second;
}

void PassiveMonitor::observe(const tls::population::ConnectionEvent& event) {
  if (event.sslv2) {
    observe_sslv2(event.month);
    return;
  }
  using tls::faults::FaultKind;
  // With a chaos tap attached, draw the capture-fault roll BEFORE
  // serializing: the roll consumes exactly the one uniform the old
  // corrupt_capture drew, so the injector's RNG stream is unchanged, and
  // events the tap leaves untouched (kNone — the overwhelming majority at
  // realistic fault rates) are known untouched up front.
  const FaultKind kind = injector_ == nullptr
                             ? FaultKind::kNone
                             : injector_->roll_capture();
  // Fast path: for untouched events the serialized records are
  // byte-for-byte what the structs would produce (the codecs are
  // inverses), so the serialize→parse round trip is pure overhead.
  // observe_event_fast harvests the structs directly and declines
  // (recording nothing) on any event the byte path would treat specially —
  // which then falls through to serialization below.
  if (kind == FaultKind::kNone && fast_observe_ && observe_event_fast(event)) {
    if (tel_fast_ != nullptr) tel_fast_->add();
    return;
  }
  // The GenCache ships the hello's record bytes with the event; copy them
  // (the injector mutates this buffer in place) instead of re-serializing.
  if (!event.client_record.empty()) {
    buf_client_.assign(event.client_record.begin(), event.client_record.end());
  } else {
    event.hello.serialize_record_into(buf_client_);
  }
  buf_server_.clear();
  buf_ske_.clear();
  buf_alert_.clear();
  if (event.result.server_hello.has_value()) {
    const auto& sh = *event.result.server_hello;
    sh.serialize_record_into(buf_server_);
    // Pre-1.3 EC handshakes carry the chosen curve in ServerKeyExchange.
    if (event.result.negotiated_group != 0 &&
        !sh.has_extension(tls::core::ExtensionType::kSupportedVersions)) {
      tls::wire::EcdheServerKeyExchange::stub(event.result.negotiated_group)
          .serialize_record_into(sh.legacy_version, buf_ske_);
    }
  }
  if (!event.result.success &&
      event.result.failure != tls::handshake::FailureReason::kNone) {
    tls::handshake::alert_for(event.result.failure)
        .serialize_record_into(0x0301, buf_alert_);
  }
  bool client_only = false;
  if (kind != FaultKind::kNone) {
    injector_->apply_capture(kind, buf_client_, buf_server_);
    // SKE and alert records travel in the server direction: when that
    // direction is lost, they are lost with it.
    if (buf_server_.empty() &&
        (kind == FaultKind::kDropFlight || kind == FaultKind::kOneSided)) {
      buf_ske_.clear();
      buf_alert_.clear();
      client_only = kind == FaultKind::kOneSided && !buf_client_.empty();
    }
  }
  observe_wire(event.month, event.day, buf_client_, buf_server_, buf_ske_,
               event.result.success, event.used_fallback, buf_alert_);
  if (client_only) ++stats(event.month).one_sided_client;
}

void PassiveMonitor::observe_span(
    std::span<const tls::population::ConnectionEvent> events) {
  for (const auto& event : events) observe(event);
}

void PassiveMonitor::observe_flights(
    Month m, const tls::core::Date& day,
    std::span<const std::uint8_t> client_stream,
    std::span<const std::uint8_t> server_stream) {
  const tls::wire::ParsedFlight cf =
      tls::wire::parse_flight_lenient(client_stream);
  const tls::wire::ParsedFlight sf =
      tls::wire::parse_flight_lenient(server_stream);
  if (cf.stream_error.has_value()) {
    note_error(m, IngestStage::kClientFlight, *cf.stream_error,
               client_stream);
  }
  if (sf.stream_error.has_value()) {
    note_error(m, IngestStage::kServerFlight, *sf.stream_error,
               server_stream);
  }

  if (!cf.client_hello.has_value()) {
    if (sf.server_hello.has_value()) {
      // One-sided capture, server direction only: harvest what the
      // ServerHello alone supports instead of discarding the flow.
      observe_server_only(m, sf);
      return;
    }
    // No usable hello in either direction: the capture is quarantined.
    quarantine_capture(m);
    return;
  }

  // §5.5: a session counts as established only when both directions carry
  // a ChangeCipherSpec.
  const bool established = cf.change_cipher_spec && sf.change_cipher_spec;
  std::vector<std::uint8_t> server_record;
  if (sf.server_hello.has_value()) {
    server_record = sf.server_hello->serialize_record();
  }
  std::vector<std::uint8_t> ske_record;
  if (sf.server_key_exchange.has_value()) {
    ske_record = sf.server_key_exchange->serialize_record(0x0303);
  }
  std::vector<std::uint8_t> alert_record;
  if (sf.alert.has_value()) {
    alert_record = sf.alert->serialize_record(0x0301);
  }
  const bool server_side_seen = !sf.records.empty();
  observe_wire(m, day, cf.client_hello->serialize_record(), server_record,
               ske_record, established, /*used_fallback=*/false,
               alert_record);
  if (!server_side_seen) ++stats(m).one_sided_client;
}

void PassiveMonitor::set_telemetry(tls::telemetry::MetricsRegistry* registry) {
  if (registry == nullptr) {
    tel_fast_ = tel_byte_ = tel_sslv2_ = nullptr;
    return;
  }
  tel_fast_ = &registry->counter(
      "tls_repro_notary_fast_path_total", "",
      "Connections harvested via the struct-reuse fast path");
  tel_byte_ = &registry->counter(
      "tls_repro_notary_byte_path_total", "",
      "Connections ingested through the serialize/parse byte path");
  tel_sslv2_ = &registry->counter("tls_repro_notary_sslv2_total", "",
                                  "SSLv2 CLIENT-HELLO connections recorded");
}

void PassiveMonitor::observe_sslv2(Month m) {
  if (tel_sslv2_ != nullptr) tel_sslv2_->add();
  MonthlyStats& s = stats(m);
  ++s.total;
  ++s.successful;
  ++s.sslv2_connections;
  s.count_version(0x0002);
  ++total_;
}

void PassiveMonitor::apply_client_features(MonthlyStats& s, Month m,
                                           const tls::core::Date& day,
                                           const ClientHelloFeatures& f) {
  s.adv_rc4 += f.adv_rc4;
  s.adv_des += f.adv_des;
  s.adv_3des += f.adv_3des;
  s.adv_aead += f.adv_aead;
  s.adv_cbc += f.adv_cbc;
  s.adv_export += f.adv_export;
  s.adv_anon += f.adv_anon;
  s.adv_null += f.adv_null;
  s.adv_fs += f.adv_fs;
  s.adv_aes128gcm += f.adv_aes128gcm;
  s.adv_aes256gcm += f.adv_aes256gcm;
  s.adv_chacha += f.adv_chacha;
  s.adv_ccm += f.adv_ccm;

  s.heartbeat_offered += f.heartbeat_offered;
  s.reneg_info_offered += f.reneg_info_offered;
  s.etm_offered += f.etm_offered;
  s.ems_offered += f.ems_offered;
  s.sni_offered += f.sni_offered;
  s.session_ticket_offered += f.session_ticket_offered;

  for (const auto v : f.tls13_versions) s.count_adv_tls13_version(v);
  s.adv_tls13 += f.adv_tls13;

  if (f.pos_aead) s.pos_aead.add(*f.pos_aead);
  if (f.pos_cbc) s.pos_cbc.add(*f.pos_cbc);
  if (f.pos_rc4) s.pos_rc4.add(*f.pos_rc4);
  if (f.pos_des) s.pos_des.add(*f.pos_des);
  if (f.pos_3des) s.pos_3des.add(*f.pos_3des);

  if (m >= fp_start() && f.fingerprint_computed) {
    durations_.record(f.fp_hash, day);
    ++fingerprintable_;
    s.fingerprints[f.fp_hash] |= f.fp_flags;
    if (f.label_cls) ++labeled_by_class_[*f.label_cls];
  }
}

void PassiveMonitor::apply_server_features(
    MonthlyStats& s, const ClientHello& hello, const ClientHelloFeatures& cf,
    const ServerHello& sh, const ServerHelloFeatures& sf,
    std::optional<std::uint16_t> ske_group) {
  using namespace tls::core;
  const std::uint16_t version = sf.version;
  if (!hello.session_id.empty() && sh.session_id == hello.session_id &&
      !is_tls13_version(version)) {
    ++s.resumed;
  }
  s.count_version(version);
  if (is_tls13_version(version)) ++s.negotiated_tls13;

  const auto* suite = sf.suite;
  if (suite != nullptr) {
    if (is_rc4(*suite) && cf.adv_aead) ++s.rc4_despite_aead;
    s.count_class(cipher_class(*suite));
    s.count_kex(kex_class(*suite));
    if (is_aead(*suite)) s.count_aead(aead_kind(*suite));
    if (is_3des(*suite)) ++s.negotiated_3des;
    if (is_export(*suite)) ++s.negotiated_export;
    if (is_anonymous(*suite)) ++s.negotiated_anon;
    if (is_null_cipher(*suite)) ++s.negotiated_null;
    if (is_null_with_null_null(*suite)) ++s.negotiated_null_with_null_null;
  }

  if (sf.key_share_group) {
    s.count_group(*sf.key_share_group);
  } else if (ske_group) {
    s.count_group(*ske_group);
  }

  if (sf.heartbeat_present && cf.heartbeat_offered) ++s.heartbeat_negotiated;
  s.reneg_info_negotiated += sf.reneg;
  s.etm_negotiated += sf.etm;
  s.ems_negotiated += sf.ems;
}

bool PassiveMonitor::observe_event_fast(
    const tls::population::ConnectionEvent& event) {
  if (!fast_build(event, scratch_features_, scratch_server_features_)) {
    return false;
  }
  fast_apply(event, scratch_features_, scratch_server_features_);
  return true;
}

bool PassiveMonitor::fast_build(const tls::population::ConnectionEvent& event,
                                ClientHelloFeatures& cf,
                                ServerHelloFeatures& sf) {
  const ClientHello& hello = event.hello;
  // The byte path quarantines hellos that fail the structural parse; the
  // only struct states that can trigger that are rejected here.
  if (hello.cipher_suites.empty() || hello.compression_methods.empty()) {
    return false;
  }
  // Precompute everything that could throw, before any state mutation, so
  // declining is always clean. Self-generated events never carry corrupt
  // extension bodies, but the guard keeps the fast path byte-identical to
  // the slow path even if one did.
  scratch_errors_.clear();
  build_client_features(hello, database_, event.month >= fp_start(), cf,
                        scratch_errors_);
  if (!scratch_errors_.empty()) return false;

  if (event.result.server_hello.has_value() &&
      !build_server_features(*event.result.server_hello, sf)) {
    return false;
  }
  return true;
}

void PassiveMonitor::fast_apply(const tls::population::ConnectionEvent& event,
                                const ClientHelloFeatures& cf,
                                const ServerHelloFeatures& sf) {
  using namespace tls::core;
  const ClientHello& hello = event.hello;
  const Month m = event.month;
  const ServerHello* sh = event.result.server_hello.has_value()
                              ? &*event.result.server_hello
                              : nullptr;

  // Mutate, mirroring observe_wire's order exactly.
  MonthlyStats& s = stats(m);
  ++s.total;
  ++total_;
  if (event.used_fallback) ++s.fallbacks;

  apply_client_features(s, m, event.day, cf);

  // observe() synthesizes an alert record only for failed handshakes with
  // a concrete failure reason; alert_for's output always parses back.
  if (!event.result.success &&
      event.result.failure != tls::handshake::FailureReason::kNone) {
    const auto alert = tls::handshake::alert_for(event.result.failure);
    s.count_alert(static_cast<std::uint8_t>(alert.description));
  }

  if (sh == nullptr) {
    ++s.failures;
    return;
  }

  const bool offered =
      std::find(hello.cipher_suites.begin(), hello.cipher_suites.end(),
                sh->cipher_suite) != hello.cipher_suites.end();
  if (!offered) ++s.spec_violations;

  if (!event.result.success) {
    ++s.failures;
    return;
  }
  ++s.successful;

  // The byte path sees the curve via the synthesized ServerKeyExchange
  // record, emitted only for pre-1.3 handshakes; stub(group) round-trips
  // the group value exactly.
  std::optional<std::uint16_t> ske_group;
  if (!sf.key_share_group && event.result.negotiated_group != 0 &&
      !sh->has_extension(ExtensionType::kSupportedVersions)) {
    ske_group = event.result.negotiated_group;
  }
  apply_server_features(s, hello, cf, *sh, sf, ske_group);
}

void PassiveMonitor::observe_wire(
    Month m, const tls::core::Date& day,
    std::span<const std::uint8_t> client_record,
    std::span<const std::uint8_t> server_record,
    std::span<const std::uint8_t> server_key_exchange_record, bool success,
    bool used_fallback, std::span<const std::uint8_t> alert_record) {
  if (tel_byte_ != nullptr) tel_byte_->add();
  using namespace tls::core;

  // ---- client side ----
  try {
    scratch_hello_ = ClientHello::parse_record(client_record);
  } catch (const tls::wire::ParseError& e) {
    note_error(m, IngestStage::kClientHello, e.code(), client_record);
    quarantine_capture(m);
    return;
  }
  const ClientHello& hello = scratch_hello_;
  const ClientHelloFeatures& feats = scratch_features_;
  scratch_errors_.clear();
  build_client_features(hello, database_, m >= fp_start(), scratch_features_,
                        scratch_errors_);
  for (const auto code : scratch_errors_) {
    note_error(m, IngestStage::kClientHello, code, client_record);
  }
  const bool client_clean = scratch_errors_.empty();

  MonthlyStats& s = stats(m);
  ++s.total;
  ++total_;
  if (used_fallback) ++s.fallbacks;

  apply_client_features(s, m, day, feats);

  // ---- alerts on failed handshakes ----
  if (!alert_record.empty()) {
    try {
      const auto alert = tls::wire::Alert::parse_record(alert_record);
      s.count_alert(static_cast<std::uint8_t>(alert.description));
    } catch (const tls::wire::ParseError& e) {
      note_error(m, IngestStage::kAlert, e.code(), alert_record);
    }
  }

  // ---- server side ----
  if (server_record.empty()) {
    ++s.failures;
    return;
  }
  try {
    scratch_server_hello_ = ServerHello::parse_record(server_record);
  } catch (const tls::wire::ParseError& e) {
    note_error(m, IngestStage::kServerHello, e.code(), server_record);
    ++s.failures;
    return;
  }
  const ServerHello& sh = scratch_server_hello_;
  const ServerHelloFeatures& sfeats = scratch_server_features_;
  // Records whose lazy accessors throw take the guarded harvest below,
  // with its partial counting and error notes.
  const bool server_clean =
      build_server_features(sh, scratch_server_features_);

  // Spec check: did the server pick something the client never offered?
  const bool offered =
      std::find(hello.cipher_suites.begin(), hello.cipher_suites.end(),
                sh.cipher_suite) != hello.cipher_suites.end();
  if (!offered) ++s.spec_violations;

  if (!success) {
    ++s.failures;
    return;
  }
  ++s.successful;

  if (server_clean && client_clean) {
    // Both sides extracted error-free: no accessor can throw, so the
    // feature-based mirror of the guarded block below applies.
    std::optional<std::uint16_t> ske_group;
    if (!sfeats.key_share_group && !server_key_exchange_record.empty()) {
      try {
        ske_group = tls::wire::EcdheServerKeyExchange::parse_record(
                        server_key_exchange_record)
                        .named_curve;
      } catch (const tls::wire::ParseError& e) {
        note_error(m, IngestStage::kServerKeyExchange, e.code(),
                   server_key_exchange_record);
      }
    }
    apply_server_features(s, hello, feats, sh, sfeats, ske_group);
    return;
  }

  try {
    const std::uint16_t version = sh.negotiated_version();
    if (!hello.session_id.empty() && sh.session_id == hello.session_id &&
        !is_tls13_version(version)) {
      ++s.resumed;
    }
    s.count_version(version);
    if (is_tls13_version(version)) ++s.negotiated_tls13;

    const auto* suite = find_cipher_suite(sh.cipher_suite);
    if (suite != nullptr) {
      if (is_rc4(*suite) && feats.adv_aead) ++s.rc4_despite_aead;
      s.count_class(cipher_class(*suite));
      s.count_kex(kex_class(*suite));
      if (is_aead(*suite)) s.count_aead(aead_kind(*suite));
      if (is_3des(*suite)) ++s.negotiated_3des;
      if (is_export(*suite)) ++s.negotiated_export;
      if (is_anonymous(*suite)) ++s.negotiated_anon;
      if (is_null_cipher(*suite)) ++s.negotiated_null;
      if (is_null_with_null_null(*suite)) ++s.negotiated_null_with_null_null;
    }

    if (const auto group = sh.key_share_group()) {
      s.count_group(*group);
    } else if (!server_key_exchange_record.empty()) {
      try {
        const auto ske = tls::wire::EcdheServerKeyExchange::parse_record(
            server_key_exchange_record);
        s.count_group(ske.named_curve);
      } catch (const tls::wire::ParseError& e) {
        note_error(m, IngestStage::kServerKeyExchange, e.code(),
                   server_key_exchange_record);
      }
    }

    if (sh.heartbeat_mode().has_value() &&
        hello.heartbeat_mode().has_value()) {
      ++s.heartbeat_negotiated;
    }
    s.reneg_info_negotiated +=
        sh.has_extension(ExtensionType::kRenegotiationInfo);
    s.etm_negotiated += sh.has_extension(ExtensionType::kEncryptThenMac);
    s.ems_negotiated += sh.has_extension(ExtensionType::kExtendedMasterSecret);
  } catch (const tls::wire::ParseError& e) {
    // A lazy ServerHello accessor hit a corrupt extension body: the
    // connection stays successful, the remaining server-side stats for it
    // are unharvestable.
    note_error(m, IngestStage::kServerHello, e.code(), server_record);
  }
}

void PassiveMonitor::note_error(Month m, IngestStage stage,
                                tls::wire::ParseErrorCode code,
                                std::span<const std::uint8_t> bytes) {
  taxonomy_.record(stage, code);
  stats(m).count_parse_error(code);
  quarantine_.push(stage, code, m, bytes);
}

void PassiveMonitor::quarantine_capture(Month m) {
  MonthlyStats& s = stats(m);
  ++s.total;
  ++s.quarantined;
}

void PassiveMonitor::observe_server_only(Month m,
                                         const tls::wire::ParsedFlight& sf) {
  using namespace tls::core;
  const ServerHello& sh = *sf.server_hello;
  MonthlyStats& s = stats(m);
  ++s.total;
  ++s.one_sided_server;
  ++total_;

  // Without the client direction, the §5.5 two-sided criterion is out of
  // reach; the server's own ChangeCipherSpec is the best available proxy.
  if (!sf.change_cipher_spec) {
    ++s.failures;
    if (sf.alert.has_value()) {
      s.count_alert(static_cast<std::uint8_t>(sf.alert->description));
    }
    return;
  }
  ++s.successful;

  try {
    const std::uint16_t version = sh.negotiated_version();
    s.count_version(version);
    if (is_tls13_version(version)) ++s.negotiated_tls13;
    const auto* suite = find_cipher_suite(sh.cipher_suite);
    if (suite != nullptr) {
      s.count_class(cipher_class(*suite));
      s.count_kex(kex_class(*suite));
      if (is_aead(*suite)) s.count_aead(aead_kind(*suite));
      if (is_3des(*suite)) ++s.negotiated_3des;
      if (is_export(*suite)) ++s.negotiated_export;
      if (is_anonymous(*suite)) ++s.negotiated_anon;
      if (is_null_cipher(*suite)) ++s.negotiated_null;
      if (is_null_with_null_null(*suite)) ++s.negotiated_null_with_null_null;
    }
    if (const auto group = sh.key_share_group()) {
      s.count_group(*group);
    } else if (sf.server_key_exchange.has_value()) {
      s.count_group(sf.server_key_exchange->named_curve);
    }
    s.reneg_info_negotiated +=
        sh.has_extension(ExtensionType::kRenegotiationInfo);
    s.etm_negotiated += sh.has_extension(ExtensionType::kEncryptThenMac);
    s.ems_negotiated +=
        sh.has_extension(ExtensionType::kExtendedMasterSecret);
  } catch (const tls::wire::ParseError& e) {
    note_error(m, IngestStage::kServerHello, e.code(), {});
  }
  // Client-dependent stats (advertised classes, fingerprints, resumption,
  // heartbeat negotiation, spec checks) are unknowable from one side.
}

std::vector<tls::analysis::LossRow> loss_rows(const PassiveMonitor& monitor) {
  std::vector<tls::analysis::LossRow> rows;
  rows.reserve(monitor.months().size());
  for (const auto& [m, s] : monitor.months()) {
    tls::analysis::LossRow row;
    row.month = m.to_string();
    row.total = s.total;
    row.successful = s.successful;
    row.failures = s.failures;
    row.quarantined = s.quarantined;
    row.one_sided = s.one_sided_client + s.one_sided_server;
    for (std::size_t i = 0;
         i < std::min(row.by_code.size(), tls::wire::kParseErrorCodeCount);
         ++i) {
      row.by_code[i] +=
          s.parse_error_count(static_cast<tls::wire::ParseErrorCode>(i));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace tls::notary
