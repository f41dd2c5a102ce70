// Capture pools: pre-generated captures whose per-connection fields are
// re-drawn on every use. A real tap never sees the same ClientHello bytes
// twice (each carries a fresh 32-byte random and, where present, a fresh
// session id; the ServerHello carries its own random), so a pool entry is
// patched with fresh random bytes — and, for daemon frames, re-checksummed
// — before each use. The fingerprint, config and server choice of an entry
// repeat; its record bytes never do.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common.hpp"
#include "daemon/protocol.hpp"
#include "population/market.hpp"
#include "population/traffic.hpp"
#include "servers/population.hpp"
#include "tlscore/dates.hpp"
#include "tlscore/rng.hpp"

namespace perfbench {

struct PooledCapture {
  tls::daemon::CapturePayload capture;
  /// encode_frame(kCapture, encode_capture(capture)).
  std::vector<std::uint8_t> frame;
  /// Offsets of the client / server record inside `frame` (0 = absent).
  std::size_t frame_client = 0;
  std::size_t frame_server = 0;
};

/// Generation-side accounting of a pool build.
struct GenerationStats {
  std::uint64_t connections = 0;
  double generate_ns = 0;  // generator time, sink time excluded
  tls::population::GenCache::Stats cache{};
};

class CapturePool {
 public:
  /// Appends one capture (built by capture_from_event).
  void add(tls::daemon::CapturePayload capture);

  /// Generates `count` connections spread evenly over `months` with a
  /// generator seeded by `seed`, converting each into a capture. Spans:
  /// "population.generate" with "bench.capture_convert" children.
  void generate(const tls::population::MarketModel& market,
                const tls::servers::ServerPopulation& servers,
                std::uint64_t seed, tls::core::MonthRange months,
                std::size_t count, Tracer* tracer, GenerationStats& stats);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] PooledCapture& at(std::size_t i) { return entries_[i]; }
  [[nodiscard]] const PooledCapture& at(std::size_t i) const {
    return entries_[i];
  }

  /// Indices of the entries whose month index has parity `lane` % 2: the
  /// daemon workload sends each month from one connection only.
  [[nodiscard]] std::vector<std::size_t> lane(std::size_t lane) const;

  /// Re-draws the randoms and session id of entry `i`'s capture records in
  /// place. Returns the FNV-1a-64 of the whole client record as it will be
  /// fed, for the distinct-record gate; none for SSLv2 captures, which
  /// carry no record. A record the refresh could not patch keeps its bytes
  /// and so shows up as a repeat.
  std::optional<std::uint64_t> refresh_capture(std::size_t i,
                                               tls::core::Rng& rng);
  /// The same for entry `i`'s frame (the key is of the client record as
  /// sent), then recomputes the frame checksum.
  std::optional<std::uint64_t> refresh_frame(std::size_t i,
                                             tls::core::Rng& rng);

 private:
  std::vector<PooledCapture> entries_;
};

/// Patches a fresh random (and session id) into a ClientHello record, or a
/// fresh random into a ServerHello record. Records of another shape are
/// left untouched (returns false).
bool refresh_client_record(std::uint8_t* record, std::size_t size,
                           tls::core::Rng& rng);
bool refresh_server_record(std::uint8_t* record, std::size_t size,
                           tls::core::Rng& rng);

/// The fingerprint-era window of the paper (every capture fingerprinted).
tls::core::MonthRange fingerprint_era();

}  // namespace perfbench
