#include "notary/monitor.hpp"

#include <algorithm>
#include <string>
#include <type_traits>
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

/// The curve a tap reads from the event's ServerKeyExchange: pre-1.3 EC
/// handshakes carry the chosen group there.
std::optional<std::uint16_t> ske_group_of(
    const tls::population::ConnectionEvent& event) {
  const auto& sh = event.result.server_hello;
  if (!sh.has_value() || event.result.negotiated_group == 0 ||
      sh->has_extension(tls::core::ExtensionType::kSupportedVersions)) {
    return std::nullopt;
  }
  return event.result.negotiated_group;
}

/// The curve of a decoded ServerKeyExchange in the flight, if any.
std::optional<std::uint16_t> ske_group_of(const tls::wire::ParsedFlight& f) {
  if (!f.server_key_exchange.has_value()) return std::nullopt;
  return f.server_key_exchange->named_curve;
}

/// The alert a tap sees on a failed handshake with a concrete reason.
std::optional<tls::wire::Alert> alert_of(
    const tls::population::ConnectionEvent& event) {
  if (event.result.success ||
      event.result.failure == tls::handshake::FailureReason::kNone) {
    return std::nullopt;
  }
  return tls::handshake::alert_for(event.result.failure);
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
  // observe_event_fast hands the structs to the ingest tail directly and
  // declines (recording nothing) on a hello the byte path's parse would
  // reject — which then falls through to serialization below.
  if (kind == FaultKind::kNone && fast_observe_ && observe_event_fast(event)) {
    ++fast_path_;
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
    if (const auto group = ske_group_of(event)) {
      tls::wire::EcdheServerKeyExchange::stub(*group).serialize_record_into(
          sh.legacy_version, buf_ske_);
    }
  }
  if (const auto alert = alert_of(event)) {
    alert->serialize_record_into(0x0301, buf_alert_);
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

  // The flights arrive decoded: the tail takes the messages themselves, and
  // a note on a hello quarantines that hello's record serialization.
  ++byte_path_;
  const ClientHello& hello = *cf.client_hello;
  harvest_client(m, hello, {.decoded = &hello});
  const ServerHello* sh =
      sf.server_hello.has_value() ? &*sf.server_hello : nullptr;
  // §5.5: a session counts as established only when both directions carry
  // a ChangeCipherSpec.
  ingest(m, day, hello, scratch_features_, sh, {.decoded = sh},
         ske_group_of(sf), {}, sf.alert,
         cf.change_cipher_spec && sf.change_cipher_spec,
         /*used_fallback=*/false);
  if (sf.records.empty()) ++stats(m).one_sided_client;
}

void PassiveMonitor::collect_metrics(
    tls::telemetry::MetricsRegistry& registry) const {
  const struct {
    const char* name;
    const char* help;
    std::uint64_t value;
  } counts[] = {
      {"tls_repro_notary_fast_path_total",
       "Connections harvested via the struct-reuse fast path", fast_path_},
      {"tls_repro_notary_byte_path_total",
       "Connections ingested through the serialize/parse byte path",
       byte_path_},
      {"tls_repro_notary_sslv2_total",
       "SSLv2 CLIENT-HELLO connections recorded", sslv2_path_},
      {"tls_repro_notary_fp_memo_lookups_total",
       "Fingerprint memo lookups (one per fingerprinted ClientHello)",
       fp_memo_.lookups()},
      {"tls_repro_notary_fp_memo_hits_total",
       "Fingerprint memo hits (MD5 and database label skipped)",
       fp_memo_.hits()},
  };
  for (const auto& [name, help, value] : counts) {
    registry.counter(name, "", help).add(value);
  }
}

void PassiveMonitor::release_scratch() {
  fp_memo_.release();
  // Assigning a fresh value frees the storage (`= {}` would keep a
  // vector's capacity).
  const auto release = [](auto& x) {
    x = std::remove_reference_t<decltype(x)>();
  };
  release(scratch_hello_);
  release(scratch_server_hello_);
  release(scratch_ske_);
  release(scratch_features_);
  release(scratch_errors_);
  release(buf_client_);
  release(buf_server_);
  release(buf_ske_);
  release(buf_alert_);
  release(buf_note_);
}

void PassiveMonitor::observe_sslv2(Month m) {
  ++sslv2_path_;
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

template <class Message>
std::span<const std::uint8_t> PassiveMonitor::bytes_of(
    const RecordBytes<Message>& record) {
  if (record.decoded == nullptr) return record.captured;
  // A stream record may hold more than one serialized record can (64 KB
  // against 18 KB): such a message is noted without bytes, never thrown.
  try {
    record.decoded->serialize_record_into(buf_note_);
  } catch (const tls::wire::ParseError&) {
    return {};
  }
  return buf_note_;
}

void PassiveMonitor::apply_server_features(
    MonthlyStats& s, Month m, const ClientHello* hello,
    const ClientHelloFeatures* cf, const ServerHello& sh,
    RecordBytes<ServerHello> server_bytes,
    std::optional<std::uint16_t> ske_group,
    std::span<const std::uint8_t> ske_record) {
  using namespace tls::core;
  // A corrupt extension body ends the harvest at its field: the fields
  // before it are counted, the connection stays successful, and the code
  // is noted once against the ServerHello.
  const ServerHelloFeatures sf = build_server_features(sh);
  const auto stop = [&](tls::wire::ParseErrorCode code) {
    note_error(m, IngestStage::kServerHello, code, bytes_of(server_bytes));
  };
  if (sf.failed_at == ServerField::kVersion) {
    stop(sf.error);
    return;
  }
  const std::uint16_t version = sf.version;
  if (hello != nullptr && !hello->session_id.empty() &&
      sh.session_id == hello->session_id && !is_tls13_wire(version)) {
    ++s.resumed;
  }
  s.count_version(version);
  if (is_tls13_wire(version)) ++s.negotiated_tls13;

  if (const auto* suite = sf.suite) {
    if (cf != nullptr && is_rc4(*suite) && cf->adv_aead) ++s.rc4_despite_aead;
    s.count_class(cipher_class(*suite));
    s.count_kex(kex_class(*suite));
    if (is_aead(*suite)) s.count_aead(aead_kind(*suite));
    if (is_3des(*suite)) ++s.negotiated_3des;
    if (is_export(*suite)) ++s.negotiated_export;
    if (is_anonymous(*suite)) ++s.negotiated_anon;
    if (is_null_cipher(*suite)) ++s.negotiated_null;
    if (is_null_with_null_null(*suite)) ++s.negotiated_null_with_null_null;
  }

  if (sf.failed_at == ServerField::kKeyShare) {
    stop(sf.error);
    return;
  }
  if (sf.key_share_group) {
    s.count_group(*sf.key_share_group);
  } else if (ske_group) {
    s.count_group(*ske_group);
  } else if (!ske_record.empty()) {
    // Parsed only here, once the count has reached the group.
    try {
      tls::wire::EcdheServerKeyExchange::parse_record_into(ske_record,
                                                           scratch_ske_);
      s.count_group(scratch_ske_.named_curve);
    } catch (const tls::wire::ParseError& e) {
      note_error(m, IngestStage::kServerKeyExchange, e.code(), ske_record);
    }
  }

  // Heartbeat negotiation needs the client's side of the capture.
  if (cf != nullptr) {
    if (sf.failed_at == ServerField::kHeartbeat) {
      stop(sf.error);
      return;
    }
    if (sf.heartbeat_present) {
      if (cf->heartbeat_error) {
        stop(*cf->heartbeat_error);
        return;
      }
      if (cf->heartbeat_offered) ++s.heartbeat_negotiated;
    }
  }
  s.reneg_info_negotiated += sf.reneg;
  s.etm_negotiated += sf.etm;
  s.ems_negotiated += sf.ems;
}

bool PassiveMonitor::observe_event_fast(
    const tls::population::ConnectionEvent& event) {
  const ClientHello& hello = event.hello;
  // The byte path quarantines hellos that fail the structural parse; the
  // only struct states that can trigger that are left to it.
  if (hello.cipher_suites.empty() || hello.compression_methods.empty()) {
    return false;
  }
  // A note quarantines the record serialization of the hello it concerns,
  // the bytes the byte path would have captured. The ServerKeyExchange and
  // alert it would synthesize round-trip their group and description.
  harvest_client(event.month, hello, {.decoded = &hello});
  const ServerHello* sh = event.result.server_hello.has_value()
                              ? &*event.result.server_hello
                              : nullptr;
  ingest(event.month, event.day, hello, scratch_features_, sh,
         {.decoded = sh}, ske_group_of(event), {}, alert_of(event),
         event.result.success, event.used_fallback);
  return true;
}

void PassiveMonitor::observe_wire(
    Month m, const tls::core::Date& day,
    std::span<const std::uint8_t> client_record,
    std::span<const std::uint8_t> server_record,
    std::span<const std::uint8_t> server_key_exchange_record, bool success,
    bool used_fallback, std::span<const std::uint8_t> alert_record) {
  ++byte_path_;
  // Decode each record, noting parse failures in capture order; the
  // ServerKeyExchange stays raw until the count reaches the group.
  try {
    ClientHello::parse_record_into(client_record, scratch_hello_);
  } catch (const tls::wire::ParseError& e) {
    note_error(m, IngestStage::kClientHello, e.code(), client_record);
    quarantine_capture(m);
    return;
  }
  harvest_client(m, scratch_hello_, {.captured = client_record});

  std::optional<tls::wire::Alert> alert;
  if (!alert_record.empty()) {
    try {
      alert = tls::wire::Alert::parse_record(alert_record);
    } catch (const tls::wire::ParseError& e) {
      note_error(m, IngestStage::kAlert, e.code(), alert_record);
    }
  }

  // An unparseable ServerHello counts like a missing one: a failure.
  const ServerHello* sh = nullptr;
  if (!server_record.empty()) {
    try {
      ServerHello::parse_record_into(server_record, scratch_server_hello_);
      sh = &scratch_server_hello_;
    } catch (const tls::wire::ParseError& e) {
      note_error(m, IngestStage::kServerHello, e.code(), server_record);
    }
  }
  ingest(m, day, scratch_hello_, scratch_features_, sh,
         {.captured = server_record}, std::nullopt,
         server_key_exchange_record, alert, success, used_fallback);
}

void PassiveMonitor::harvest_client(Month m, const ClientHello& hello,
                                    RecordBytes<ClientHello> record) {
  scratch_errors_.clear();
  build_client_features(hello, database_, fp_memo_, m >= fp_start(),
                        scratch_features_, scratch_errors_);
  for (const auto code : scratch_errors_) {
    note_error(m, IngestStage::kClientHello, code, bytes_of(record));
  }
}

void PassiveMonitor::ingest(Month m, const tls::core::Date& day,
                            const ClientHello& hello,
                            const ClientHelloFeatures& cf,
                            const ServerHello* sh,
                            RecordBytes<ServerHello> server_bytes,
                            std::optional<std::uint16_t> ske_group,
                            std::span<const std::uint8_t> ske_record,
                            const std::optional<tls::wire::Alert>& alert,
                            bool success, bool used_fallback) {
  MonthlyStats& s = stats(m);
  ++s.total;
  ++total_;
  if (used_fallback) ++s.fallbacks;

  apply_client_features(s, m, day, cf);
  if (alert) s.count_alert(static_cast<std::uint8_t>(alert->description));

  if (sh == nullptr) {
    ++s.failures;
    return;
  }
  // Spec check: did the server pick something the client never offered?
  const bool offered =
      std::find(hello.cipher_suites.begin(), hello.cipher_suites.end(),
                sh->cipher_suite) != hello.cipher_suites.end();
  if (!offered) ++s.spec_violations;

  if (!success) {
    ++s.failures;
    return;
  }
  ++s.successful;
  apply_server_features(s, m, &hello, &cf, *sh, server_bytes, ske_group,
                        ske_record);
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

  // Client-dependent stats (advertised classes, fingerprints, resumption,
  // heartbeat negotiation, spec checks) are unknowable from one side, and
  // a note here quarantines no bytes.
  apply_server_features(s, m, nullptr, nullptr, *sf.server_hello, {},
                        ske_group_of(sf), {});
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
