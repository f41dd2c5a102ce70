#include "scan/scanner.hpp"

#include <algorithm>

#include "clients/suite_pools.hpp"
#include "handshake/negotiate.hpp"
#include "tlscore/cipher_suites.hpp"
#include "wire/heartbeat.hpp"

namespace tls::scan {

using tls::core::Month;
using tls::wire::ClientHello;

namespace {

ClientHello base_hello(std::uint16_t version,
                       std::vector<std::uint16_t> suites) {
  ClientHello ch;
  ch.legacy_version = version;
  ch.random.fill(0x5c);
  ch.cipher_suites = std::move(suites);
  std::vector<std::uint16_t> groups{23, 24, 25, 29};
  ch.extensions.push_back(tls::wire::make_supported_groups(groups));
  const std::uint8_t formats[] = {0};
  ch.extensions.push_back(tls::wire::make_ec_point_formats(formats));
  if (version >= 0x0303) {
    std::vector<std::uint16_t> sig{0x0403, 0x0401, 0x0503, 0x0501,
                                   0x0201, 0x0203};
    ch.extensions.push_back(tls::wire::make_signature_algorithms(sig));
  }
  return ch;
}

}  // namespace

ClientHello chrome2015_hello() {
  // Chrome 41-era list: ECDHE-GCM + ChaCha first, then CBC, RC4, 3DES.
  using namespace tls::clients;
  return base_hello(
      0x0303, compose({aead_pool(), prefix(cbc_pool(), 9), prefix(rc4_pool(), 4),
                       prefix(tdes_pool(), 1)}));
}

ClientHello ssl3_only_hello() {
  return base_hello(0x0300, {0x0005, 0x0004, 0x000a, 0x0009, 0x002f, 0x0035});
}

ClientHello export_only_hello() {
  using namespace tls::clients;
  const auto exp = export_pool();
  return base_hello(0x0301, {exp.begin(), exp.end()});
}

ClientHello tls13_draft_hello() {
  using namespace tls::clients;
  ClientHello ch = base_hello(
      0x0303, compose({tls13_pool(), aead_pool(), prefix(cbc_pool(), 9)}));
  std::vector<std::uint16_t> versions{0x7f1c, 0x7f17, 0x7f12, 0x7e02, 0x0304,
                                      0x0303};
  ch.extensions.push_back(
      tls::wire::make_supported_versions_client(versions));
  std::vector<std::uint16_t> share_groups{29};
  ch.extensions.push_back(tls::wire::make_key_share_client(share_groups));
  return ch;
}

const ScanProbeSet& scan_probe_set() {
  // Magic-static initialization is thread-safe; after the first probe the
  // hellos and their wire bytes are shared by every sweep on every thread.
  static const ScanProbeSet set = [] {
    ScanProbeSet s;
    s.chrome = chrome2015_hello();
    s.ssl3 = ssl3_only_hello();
    s.expo = export_only_hello();
    s.tls13 = tls13_draft_hello();
    s.chrome_record = s.chrome.serialize_record();
    s.ssl3_record = s.ssl3.serialize_record();
    s.expo_record = s.expo.serialize_record();
    s.tls13_record = s.tls13.serialize_record();
    return s;
  }();
  return set;
}

ScanSnapshot ActiveScanner::scan(Month m) const {
  return scan_weighted(m, /*by_traffic=*/false);
}

ScanSnapshot ActiveScanner::scan_popular(Month m) const {
  return scan_weighted(m, /*by_traffic=*/true);
}

SegmentProbe ActiveScanner::probe_segment(Month m, std::size_t segment_index,
                                          bool by_traffic) const {
  SegmentProbe probe;
  const auto& seg = population_.segments()[segment_index];
  if (by_traffic && seg.special_destination) return probe;  // not web-facing
  const double w =
      by_traffic ? seg.traffic_share.at(m) : seg.host_share.at(m);
  if (w <= 0) return probe;
  probe.included = true;
  probe.weight = w;

  if (!policy_.network.ideal()) {
    // Deterministic per (seed, month, segment): reordering segments or
    // months — or running them on different threads — cannot change any
    // host's fate.
    tls::core::Rng fault_rng(policy_.seed ^
                             (static_cast<std::uint64_t>(m.index()) << 20) ^
                             segment_index);
    const auto trace =
        tls::faults::run_probe(policy_.network, policy_.retry, fault_rng);
    probe.attempts = trace.attempts.size();
    probe.retries = trace.retries();
    probe.abandoned = trace.abandoned;
    if (!trace.reached) return probe;
  } else {
    probe.attempts = 1;
  }
  probe.reached = true;

  const ScanProbeSet& probes = scan_probe_set();
  const ClientHello& chrome = probes.chrome;
  tls::core::Rng rng(0xacce55);

  const auto chrome_result =
      tls::handshake::negotiate(chrome, seg.config, rng);
  if (chrome_result.success) {
    using namespace tls::core;
    switch (cipher_class(chrome_result.negotiated_cipher)) {
      case CipherClass::kRc4: probe.rc4 = w; break;
      case CipherClass::kCbc: probe.cbc = w; break;
      case CipherClass::kAead: probe.aead = w; break;
      default: break;
    }
    const auto* info = find_cipher_suite(chrome_result.negotiated_cipher);
    if (info != nullptr && is_3des(*info)) probe.tdes = w;

    // Suite-support probes (SSL-Pulse style): which offered suites would
    // the server accept at all?
    bool any_rc4 = false;
    bool any_non_rc4 = false;
    for (const auto id : chrome.cipher_suites) {
      if (!seg.config.supports_suite(id)) continue;
      const auto* i = find_cipher_suite(id);
      if (i == nullptr) continue;
      if (is_rc4(*i)) {
        any_rc4 = true;
      } else {
        any_non_rc4 = true;
      }
    }
    if (any_rc4) probe.rc4_support = w;
    if (any_rc4 && !any_non_rc4) probe.rc4_only = w;
  }

  if (tls::handshake::negotiate(probes.ssl3, seg.config, rng).success) {
    probe.ssl3 = w;
  }
  if (tls::handshake::negotiate(probes.expo, seg.config, rng).success) {
    probe.expo = w;
  }
  const auto r13 =
      tls::handshake::negotiate(probes.tls13, seg.config, rng);
  if (r13.success && r13.negotiated_version != 0x0303 &&
      r13.negotiated_version != 0x0301) {
    probe.tls13 = w;
  }

  if (seg.config.echo_heartbeat) {
    probe.heartbeat = w;
    probe.heartbleed = w * seg.heartbleed_unpatched.at(m);
  }
  return probe;
}

void ActiveScanner::fold_probe(ScanSnapshot& snap, const SegmentProbe& probe,
                               double& total, double& population) {
  if (!probe.included) return;
  population += probe.weight;
  snap.probe_attempts += probe.attempts;
  snap.probe_retries += probe.retries;
  if (probe.abandoned) ++snap.probes_abandoned;
  if (!probe.reached) {
    snap.unreachable += probe.weight;
    return;
  }
  snap.scanned += probe.weight;
  total += probe.weight;
  // Each field receives either 0.0 or exactly the weight the serial sweep
  // would have added; adding 0.0 to a non-negative sum is the identity, so
  // the fold reproduces the conditional serial additions bit for bit.
  snap.chooses_rc4 += probe.rc4;
  snap.chooses_cbc += probe.cbc;
  snap.chooses_aead += probe.aead;
  snap.chooses_3des += probe.tdes;
  snap.rc4_support += probe.rc4_support;
  snap.rc4_only += probe.rc4_only;
  snap.ssl3_support += probe.ssl3;
  snap.export_support += probe.expo;
  snap.tls13_support += probe.tls13;
  snap.heartbeat_support += probe.heartbeat;
  snap.heartbleed_vulnerable += probe.heartbleed;
}

void ActiveScanner::finalize(ScanSnapshot& snap, double total,
                             double population) {
  if (total > 0) {
    for (double* f :
         {&snap.ssl3_support, &snap.export_support, &snap.chooses_rc4,
          &snap.chooses_cbc, &snap.chooses_aead, &snap.chooses_3des,
          &snap.rc4_support, &snap.rc4_only, &snap.heartbeat_support,
          &snap.heartbleed_vulnerable, &snap.tls13_support}) {
      *f /= total;
    }
  }
  // Coverage fractions over the full target population: together with the
  // results above, every figure can report how much of the population it
  // actually saw. scanned + unreachable == 1 by construction.
  if (population > 0) {
    snap.scanned /= population;
    snap.unreachable /= population;
  }
}

ScanSnapshot ActiveScanner::scan_weighted(Month m, bool by_traffic) const {
  ScanSnapshot snap;
  snap.month = m;
  double total = 0;        // reached weight: denominator for the fractions
  double population = 0;   // full target weight: denominator for coverage
  const std::size_t n_segments = population_.segments().size();
  for (std::size_t i = 0; i < n_segments; ++i) {
    fold_probe(snap, probe_segment(m, i, by_traffic), total, population);
  }
  finalize(snap, total, population);
  return snap;
}

bool ActiveScanner::probe_heartbleed(
    const tls::servers::ServerSegment& segment, Month m,
    tls::core::Rng& rng) const {
  // Hosts without heartbeat support never answer heartbeat records.
  if (!segment.config.echo_heartbeat) return false;
  const bool host_unpatched = rng.chance(segment.heartbleed_unpatched.at(m));
  // Synthetic "process memory" — what an over-read would expose.
  std::vector<std::uint8_t> memory(256);
  for (std::size_t i = 0; i < memory.size(); ++i) {
    memory[i] = static_cast<std::uint8_t>(rng.next());
  }
  const tls::wire::HeartbeatResponder responder(host_unpatched,
                                                std::move(memory));
  const auto probe = tls::wire::make_heartbleed_probe();
  const auto response = responder.respond(probe.serialize_record(0x0303));
  return tls::wire::probe_indicates_vulnerable(response);
}

double ActiveScanner::heartbleed_probe_fraction(Month m, std::size_t samples,
                                                tls::core::Rng& rng) const {
  // Sample hosts by host_share, probe each.
  double total = 0;
  for (const auto& seg : population_.segments()) total += seg.host_share.at(m);
  if (total <= 0 || samples == 0) return 0;
  std::size_t vulnerable = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    double x = rng.uniform() * total;
    const tls::servers::ServerSegment* chosen = nullptr;
    for (const auto& seg : population_.segments()) {
      chosen = &seg;
      x -= seg.host_share.at(m);
      if (x <= 0) break;
    }
    if (chosen != nullptr && probe_heartbleed(*chosen, m, rng)) ++vulnerable;
  }
  return static_cast<double>(vulnerable) / static_cast<double>(samples);
}

std::vector<ScanSnapshot> ActiveScanner::scan_range(
    tls::core::MonthRange range) const {
  std::vector<ScanSnapshot> out;
  out.reserve(static_cast<std::size_t>(range.size()));
  for (Month m = range.begin_month; m <= range.end_month; ++m) {
    out.push_back(scan(m));
  }
  return out;
}

std::vector<ScanSnapshot> ActiveScanner::fold_range(
    tls::core::MonthRange range, std::span<const SegmentProbe> probes) const {
  const auto n_months = static_cast<std::size_t>(range.size());
  const std::size_t n_segments = population_.segments().size();
  // Fold in (month, segment) order — the serial sweep's order exactly.
  std::vector<ScanSnapshot> out;
  out.reserve(n_months);
  for (std::size_t mi = 0; mi < n_months; ++mi) {
    ScanSnapshot snap;
    snap.month = range.begin_month + static_cast<int>(mi);
    double total = 0;
    double population = 0;
    for (std::size_t si = 0; si < n_segments; ++si) {
      fold_probe(snap, probes[mi * n_segments + si], total, population);
    }
    finalize(snap, total, population);
    out.push_back(snap);
  }
  return out;
}

}  // namespace tls::scan
