// Chaos tap: seeded, deterministic fault injection for the measurement
// planes. The real Notary saw truncated flows, one-sided captures and
// malformed hellos; Censys-style scans saw resets and timeouts. The
// FaultInjector reproduces those degradations on demand so the ingestion
// pipeline can be soak-tested at sweep-able fault rates: every mutation is
// drawn from an explicitly seeded tls::core::Rng, so a (config, seed) pair
// always yields the same corrupted byte stream.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "tlscore/rng.hpp"

namespace tls::faults {

enum class FaultKind : std::uint8_t {
  kNone,             // stream passed through untouched
  kTruncate,         // cut at an arbitrary byte offset
  kBitFlip,          // 1..8 random bit flips
  kLengthCorrupt,    // randomize a record header's length field
  kTrailingGarbage,  // random bytes appended after the last record
  kRecordSplit,      // one record re-framed as two fragments
  kRecordCoalesce,   // two adjacent records merged into one
  kDropFlight,       // the whole capture lost (both directions)
  kOneSided,         // one direction of the capture lost

  // Checkpoint-journal frame faults (corrupt_frame only; never rolled by
  // the capture/stream paths, so adding them left every existing RNG
  // stream untouched).
  kFrameTruncate,    // journal frame cut short (simulated torn write)
  kFrameBitFlip,     // 1..8 bit flips inside a journal frame
  kFrameDuplicate,   // frame written twice (replayed append)

  // Segment-level journal faults (group-commit path only; rolled by
  // corrupt_group, so existing RNG streams are untouched).
  kGroupTornTail,    // group record cut mid-write (power cut during append)
  kGroupBitFlip,     // one byte corrupted inside a committed group
  kSegmentTruncate,  // back half of the segment lost after the group landed
};

inline constexpr std::size_t kFaultKindCount = 15;

std::string_view fault_kind_name(FaultKind kind);

/// Per-kind injection probabilities (independent of each other only in the
/// sense that at most ONE fault is applied per stream/capture; the rates
/// are selection weights and their sum is the total fault rate, <= 1).
struct FaultConfig {
  double truncate = 0;
  double bit_flip = 0;
  double length_corrupt = 0;
  double trailing_garbage = 0;
  double record_split = 0;
  double record_coalesce = 0;
  double drop_flight = 0;
  double one_sided = 0;

  // Journal-frame fault rates, drawn only by corrupt_frame. Kept out of
  // total()/uniform() so capture fault baselines are unchanged.
  double frame_truncate = 0;
  double frame_bit_flip = 0;
  double frame_duplicate = 0;

  // Segment-level journal fault rates, drawn only by corrupt_group on the
  // group-commit path.
  double group_torn_tail = 0;
  double group_bit_flip = 0;
  double segment_truncate = 0;

  /// Total capture/stream fault rate (probability any fault fires per
  /// capture). Frame rates are separate; see frame_total().
  [[nodiscard]] double total() const {
    return truncate + bit_flip + length_corrupt + trailing_garbage +
           record_split + record_coalesce + drop_flight + one_sided;
  }

  /// Total journal-frame fault rate (probability corrupt_frame acts).
  [[nodiscard]] double frame_total() const {
    return frame_truncate + frame_bit_flip + frame_duplicate;
  }

  /// Total segment-level fault rate (probability corrupt_group acts per
  /// committed group).
  [[nodiscard]] double group_total() const {
    return group_torn_tail + group_bit_flip + segment_truncate;
  }

  /// Splits `rate` evenly over all eight capture fault kinds.
  static FaultConfig uniform(double rate);
  /// Byte-level faults only (no capture loss): even split over truncate,
  /// bit_flip, length_corrupt, trailing_garbage, record_split, coalesce.
  static FaultConfig bytes_only(double rate);
  /// Journal-frame faults only: even split over frame_truncate,
  /// frame_bit_flip, frame_duplicate.
  static FaultConfig frames_only(double rate);
  /// Segment-level faults only: even split over group_torn_tail,
  /// group_bit_flip, segment_truncate.
  static FaultConfig groups_only(double rate);
};

/// Counts of what the injector actually did — the ground truth a soak test
/// compares the monitor's error taxonomy against.
struct FaultStats {
  std::array<std::uint64_t, kFaultKindCount> applied{};
  std::uint64_t streams_seen = 0;
  std::uint64_t captures_seen = 0;
  std::uint64_t frames_seen = 0;
  std::uint64_t groups_seen = 0;

  [[nodiscard]] std::uint64_t total_faults() const {
    std::uint64_t n = 0;
    for (std::size_t i = 1; i < kFaultKindCount; ++i) n += applied[i];
    return n;
  }
  [[nodiscard]] std::uint64_t count(FaultKind k) const {
    return applied[static_cast<std::size_t>(k)];
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config, std::uint64_t seed = 0xfa11);

  /// Possibly applies one byte-level fault to a single record stream,
  /// in place. Capture-level kinds (kDropFlight, kOneSided) degrade to
  /// clearing the stream. Returns what was done.
  FaultKind corrupt_stream(std::vector<std::uint8_t>& stream);

  /// Possibly applies one fault to a two-direction capture: kDropFlight
  /// clears both streams, kOneSided clears one (coin-flip which), and the
  /// byte-level kinds hit one direction (coin-flip which).
  FaultKind corrupt_capture(std::vector<std::uint8_t>& client,
                            std::vector<std::uint8_t>& server);

  /// Decision half of corrupt_capture: counts the capture and draws the
  /// capture-fault roll (exactly one uniform), applying nothing. Lets the
  /// monitor decide *before* serializing whether this event can take the
  /// struct fast path (kNone) while consuming the identical RNG stream.
  FaultKind roll_capture();
  /// Mutation half of corrupt_capture: applies `kind` (as returned by
  /// roll_capture) to the capture and books the stat. roll_capture followed
  /// by apply_capture is byte-for-byte equivalent to corrupt_capture.
  void apply_capture(FaultKind kind, std::vector<std::uint8_t>& client,
                     std::vector<std::uint8_t>& server);

  /// Possibly applies one journal-frame fault in place, drawing from the
  /// frame_* rates only. kFrameDuplicate performs no mutation — the caller
  /// is responsible for writing the frame twice.
  FaultKind corrupt_frame(std::vector<std::uint8_t>& frame);

  /// Possibly applies one segment-level fault to an encoded group record,
  /// drawing from the group_*/segment_* rates only. kGroupTornTail cuts
  /// the record short and kGroupBitFlip corrupts one byte, both in place;
  /// kSegmentTruncate performs no mutation here — it is a decision the
  /// journal writer executes (dropping the segment tail).
  FaultKind corrupt_group(std::vector<std::uint8_t>& group);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  [[nodiscard]] const FaultConfig& config() const { return config_; }
  [[nodiscard]] tls::core::Rng& rng() { return rng_; }

 private:
  FaultKind roll();
  void apply_bytes(FaultKind kind, std::vector<std::uint8_t>& stream);

  FaultConfig config_;
  tls::core::Rng rng_;
  FaultStats stats_;
};

// ---- deterministic mutation primitives (exposed for fuzz tests) ----

/// Offsets of the record headers in a serialized record stream, walking the
/// declared length fields; stops at the first malformed header.
std::vector<std::size_t> record_offsets(
    const std::vector<std::uint8_t>& stream);

void truncate_at(std::vector<std::uint8_t>& stream, std::size_t offset);
void flip_bits(std::vector<std::uint8_t>& stream, tls::core::Rng& rng,
               int flips);
/// Randomizes the u16 length field of a randomly chosen record header.
/// Falls back to a bit flip when no header is found.
void corrupt_record_length(std::vector<std::uint8_t>& stream,
                           tls::core::Rng& rng);
void append_garbage(std::vector<std::uint8_t>& stream, tls::core::Rng& rng,
                    std::size_t max_bytes = 32);
/// Re-frames one record as two records carrying the split fragment
/// (legal TLS fragmentation). Returns false when no record can be split.
bool split_record(std::vector<std::uint8_t>& stream, tls::core::Rng& rng);
/// Merges the first two adjacent records with equal type+version into one
/// record (legal coalescing). Returns false when no such pair exists.
bool coalesce_records(std::vector<std::uint8_t>& stream);

}  // namespace tls::faults
