// The daemon workload's sensor side: one thread driving a NotaryDaemon over
// loopback TCP on two connections, with frames drawn from a CapturePool and
// re-randomized and re-checksummed per send.
//
// A run is `cycles` repetitions of three windows:
//   settle      open loop at `paced_rate`, not measured
//   paced       open loop at `paced_rate`; every send is timed from when it
//               was due, so a send that waited for credit carries its wait;
//               returned credits resolve sends FIFO per connection
//   saturation  closed loop: each connection's credit window kept full
// After the last cycle the generator stops sending and waits until every
// sent capture is acknowledged. Between sends it sleeps, leaving the
// processors to the daemon.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "pool.hpp"

namespace perfbench {

struct LoadgenConfig {
  std::uint16_t port = 0;
  double paced_rate = kPacedRate;  // aggregate captures/s
  double settle_s = 0;
  double paced_s = 0;
  double saturation_s = 0;
  int cycles = 1;
  /// Closed loop until this many captures were sent (0 = the cycles above).
  std::uint64_t max_captures = 0;
  /// Keep a copy of every sent frame, per connection, in send order.
  bool keep_frames = false;
  std::uint64_t seed = 0;
  /// Time the reference kernel on the generator thread at the start of
  /// every cycle's settle window and once after the last cycle (see
  /// reference.hpp).
  bool reference = false;
  Tracer* tracer = nullptr;
  /// Called when the first cycle's measured paced window starts (0), when
  /// its saturation window starts (1) and when that window ends (2); used
  /// for daemon-side histogram snapshots.
  std::function<void(int)> on_phase;
};

struct LoadgenResult {
  bool ok = true;
  std::string error;
  std::uint64_t scheduled = 0;
  std::uint64_t sent = 0;
  std::uint64_t acked = 0;
  /// Sends due inside measured paced windows, and how many of them found
  /// no credit when due.
  std::uint64_t paced_due = 0;
  std::uint64_t stalled = 0;
  /// Per cycle: the ack latency of every send due in its measured window.
  std::vector<std::vector<double>> ack_latency_us;
  std::vector<double> lateness_us;  // send time - due time, credit-ready sends
  /// Per cycle: acks that arrived during its saturation window.
  std::vector<std::uint64_t> sat_acked;
  /// The reference kernel times (ns) at the start of each cycle and after
  /// the last one (cycles + 1 values), when config.reference.
  std::vector<double> cycle_reference_ns;
  std::uint64_t grant_frames = 0;   // credit grants after the initial window
  std::uint64_t granted = 0;
  std::uint64_t excess_credits = 0;
  double encode_ns = 0;             // frame refresh + copy into the send buffer
  std::uint64_t encoded = 0;
  int threads_seen = 0;             // process threads during saturation
  std::vector<std::uint64_t> record_keys;
  /// Per connection: the frames sent, when keep_frames is set.
  std::vector<std::vector<std::vector<std::uint8_t>>> frames;
};

/// Per cycle: acks per second of its saturation window.
std::vector<double> saturation_rates(const LoadgenResult& result,
                                     const LoadgenConfig& config);

/// Per cycle: ack-latency median and tail (see summarize()).
std::vector<Summary> latency_by_cycle(LoadgenResult& result);

/// Runs the cycles against the daemon listening on 127.0.0.1:`port`.
/// Connection c sends pool.lane(c) entries, cycling, each with fresh
/// randoms.
LoadgenResult run_loadgen(CapturePool& pool, const LoadgenConfig& config);

}  // namespace perfbench
