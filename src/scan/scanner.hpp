// Active-scan layer — the Censys-equivalent view of the server population.
// Scans sweep hosts (host_share-weighted segments) with fixed ClientHellos:
//   * the 2015-Chrome suite list (strong GCM+FS, weaker CBC, RC4, 3DES —
//     §3.2), recording which class of suite each server selects;
//   * an SSL3-only hello (§5.1's weekly scans);
//   * an EXPORT-only hello (§5.5's FREAK/Logjam scans).
// It also reports Heartbeat support and the Heartbleed-vulnerable fraction
// (§5.4), and the SSL-Pulse-style RC4 support rates of §5.3.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "faults/network.hpp"
#include "servers/population.hpp"
#include "tlscore/dates.hpp"
#include "tlscore/rng.hpp"
#include "wire/client_hello.hpp"

namespace tls::scan {

/// The fixed scan hellos. Built once; byte-identical across calls.
tls::wire::ClientHello chrome2015_hello();
tls::wire::ClientHello ssl3_only_hello();
tls::wire::ClientHello export_only_hello();
tls::wire::ClientHello tls13_draft_hello();

/// The four scan hellos plus their serialized records, built exactly once
/// per process (the hellos are compile-time-fixed, so rebuilding suite
/// pools and extension vectors for every (month, segment) probe was pure
/// allocation churn). The structs are what negotiate() consumes; the
/// records are the bytes a real scanner would put on the wire, kept for
/// callers that need them.
struct ScanProbeSet {
  tls::wire::ClientHello chrome;
  tls::wire::ClientHello ssl3;
  tls::wire::ClientHello expo;
  tls::wire::ClientHello tls13;
  std::vector<std::uint8_t> chrome_record;
  std::vector<std::uint8_t> ssl3_record;
  std::vector<std::uint8_t> expo_record;
  std::vector<std::uint8_t> tls13_record;
};

/// Process-wide memoized probe set (thread-safe function-local static).
const ScanProbeSet& scan_probe_set();

/// How a sweep probes: the network it expects and the retry/backoff budget
/// it spends per host. The default is an ideal network — zero faults, no
/// retries consumed — keeping the fault-free sweep bit-identical.
struct ScanPolicy {
  tls::faults::NetworkProfile network{};
  tls::faults::RetryPolicy retry{};
  /// Seed for the fault/retry stream; sweeps are deterministic per
  /// (seed, month, segment), independent of evaluation order.
  std::uint64_t seed = 0x5ca4;
};

struct ScanSnapshot {
  tls::core::Month month{2015, 8};

  // Fractions of hosts (0..1), host_share-weighted. Support/selection
  // fractions are normalized over *reached* hosts, so unbiased loss leaves
  // them asymptotically unchanged.
  double ssl3_support = 0;      // completes the SSL3-only handshake
  double export_support = 0;    // completes the EXPORT-only handshake
  double chooses_rc4 = 0;       // given the 2015-Chrome hello
  double chooses_cbc = 0;
  double chooses_aead = 0;
  double chooses_3des = 0;
  double rc4_support = 0;       // RC4 anywhere in the server's list
  double rc4_only = 0;          // nothing but RC4 in common with the hello
  double heartbeat_support = 0;
  double heartbleed_vulnerable = 0;
  double tls13_support = 0;

  // ---- loss accounting (coverage reported alongside results) ----
  /// Host-share fractions over the whole target population;
  /// scanned + unreachable == 1 whenever any weight exists.
  double scanned = 0;
  double unreachable = 0;
  /// Probe bookkeeping: total attempts (incl. retries), retries alone, and
  /// probes abandoned on the retry/time budget.
  std::uint64_t probe_attempts = 0;
  std::uint64_t probe_retries = 0;
  std::uint64_t probes_abandoned = 0;
};

/// One (month, segment) probe result — the indivisible unit of scan work,
/// and therefore the unit of parallelism. A probe is a pure function of
/// (policy, month, segment): its fault stream is seeded per (seed, month,
/// segment) and its negotiation stream is a fixed per-segment constant, so
/// probes can run on any thread in any order. Folding probes into a
/// ScanSnapshot in segment order reproduces the serial sweep bit for bit:
/// every weight-valued field here is either 0 or the exact double the
/// serial loop would have added.
struct SegmentProbe {
  bool included = false;  // segment carries weight for this sweep
  bool reached = false;
  double weight = 0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  bool abandoned = false;
  double ssl3 = 0, expo = 0, rc4 = 0, cbc = 0, aead = 0, tdes = 0;
  double rc4_support = 0, rc4_only = 0;
  double heartbeat = 0, heartbleed = 0, tls13 = 0;
};

class ActiveScanner {
 public:
  explicit ActiveScanner(const tls::servers::ServerPopulation& population,
                         ScanPolicy policy = {})
      : population_(population), policy_(policy) {}

  /// One full IPv4-style sweep for month m (host_share-weighted).
  [[nodiscard]] ScanSnapshot scan(tls::core::Month m) const;

  /// Probes population_.segments()[segment_index] for month m.
  [[nodiscard]] SegmentProbe probe_segment(tls::core::Month m,
                                           std::size_t segment_index,
                                           bool by_traffic) const;

  /// SSL-Pulse-style sweep of *popular* sites: the same probes weighted by
  /// traffic_share instead of host_share (§5.3's Alexa-based numbers).
  [[nodiscard]] ScanSnapshot scan_popular(tls::core::Month m) const;

  /// Probes one simulated host of `segment` with a real RFC 6520
  /// Heartbleed probe (lying payload_length) against its heartbeat
  /// responder — the §5.4 scan mechanism, not the analytic shortcut.
  /// Whether this particular host is patched is drawn from the segment's
  /// heartbleed_unpatched share at m.
  [[nodiscard]] bool probe_heartbleed(
      const tls::servers::ServerSegment& segment, tls::core::Month m,
      tls::core::Rng& rng) const;

  /// Monte-Carlo estimate of the vulnerable-host fraction via
  /// probe_heartbleed over `samples` host draws; converges to the
  /// analytic value reported by scan().
  [[nodiscard]] double heartbleed_probe_fraction(tls::core::Month m,
                                                 std::size_t samples,
                                                 tls::core::Rng& rng) const;

  /// Monthly sweeps over an inclusive range (the Censys window by default).
  [[nodiscard]] std::vector<ScanSnapshot> scan_range(
      tls::core::MonthRange range) const;

  /// Folds a month-major probe grid (size() months × segments() entries,
  /// (month, segment) order) into monthly snapshots — byte-identical to
  /// scan_range over the same range. Probes are deterministic per (seed,
  /// month, segment), so the grid may be computed on any threads, and
  /// replayed from a journal, before this fold.
  [[nodiscard]] std::vector<ScanSnapshot> fold_range(
      tls::core::MonthRange range, std::span<const SegmentProbe> probes) const;

  [[nodiscard]] const ScanPolicy& policy() const { return policy_; }

 private:
  [[nodiscard]] ScanSnapshot scan_weighted(tls::core::Month m,
                                           bool by_traffic) const;
  /// Adds one probe into the sweep accumulator; `total` is the reached
  /// weight, `population` the full target weight.
  static void fold_probe(ScanSnapshot& snap, const SegmentProbe& probe,
                         double& total, double& population);
  /// Normalizes the accumulated sweep (support fractions over reached
  /// weight, coverage fractions over population weight).
  static void finalize(ScanSnapshot& snap, double total, double population);

  const tls::servers::ServerPopulation& population_;
  ScanPolicy policy_;
};

}  // namespace tls::scan
