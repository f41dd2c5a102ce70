// Crash-safe checkpoint journal for study runs. Each completed (month,
// shard) passive task is persisted as one checksummed frame; a manifest
// pins the run's identity (options digest, seed, shard plan, format
// version). The active-scan sweep is not journaled: it is recomputed, in
// 1-2 ms, on every run. On restart the journal replays: frames that verify
// are absorbed in plan order and their tasks skipped, while torn, corrupt,
// mismatched, or duplicate frames are quarantined to a sidecar directory
// and their tasks deterministically recomputed — a half-written journal
// can degrade a resume back toward a cold run, but can never corrupt a
// result or crash the study.
//
// Completed frames are handed to a group-commit writer (core/journal.hpp)
// that batches them into append-only segment files and pays ONE fsync per
// group. An un-fsynced group is as if never written: replay scans each
// segment, truncates at the last checksummed group boundary, quarantines
// the torn tail and recomputes the affected tasks. A group the writer
// cannot make durable is dropped and counted (RecoveryReport::
// frames_dropped); its tasks are recomputed on resume, because a
// checkpoint is only an aid.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/render.hpp"
#include "core/journal.hpp"
#include "faults/injector.hpp"
#include "telemetry/metrics.hpp"
#include "tlscore/dates.hpp"

namespace tls::study {

struct StudyOptions;

/// Journal wire-format version; manifests and frames carrying any other
/// value are quarantined (kUnsupported), never migrated in place.
inline constexpr std::uint32_t kCheckpointFormatVersion = 2;

/// Default ceiling on a frame's declared payload length. One monitor
/// snapshot for a tiny shard is a few KiB; a full-catalog shard a few
/// hundred KiB. Anything beyond this is a corrupt length field, not a
/// plausible payload — decode_frame rejects it BEFORE allocating, so a
/// hostile on-disk length can cost at most one bounds check, never an
/// allocation-driven OOM.
inline constexpr std::uint32_t kDefaultMaxFramePayload = 64u << 20;

/// The journal's one durability mode: segmented group commit, one fsync
/// per group. Kept for `perfbench/` until the next `[benchmark]` PR.
enum class JournalMode : std::uint8_t {
  kGrouped = 1,
};

/// What a frame's payload holds.
enum class FrameKind : std::uint8_t {
  kPassiveShard = 1,  // encode_monitor_state of one (month, shard) monitor
};

/// Identity of one frame inside a run: which task's result it carries.
struct FrameHeader {
  FrameKind kind = FrameKind::kPassiveShard;
  std::uint32_t month_index = 0;  // tls::core::Month::index()
  std::uint32_t slot = 0;         // shard
};

/// Everything that pins a journal to one specific run. A manifest whose
/// digest, seed, or plan differs from the current options invalidates every
/// frame (they describe different work); resume quarantines them and wipes
/// their segments before stamping the current manifest.
struct CheckpointManifest {
  std::uint32_t format_version = kCheckpointFormatVersion;
  std::uint64_t options_digest = 0;
  std::uint64_t seed = 0;
  std::uint32_t window_begin = 0;  // month indices, inclusive
  std::uint32_t window_end = 0;
  std::uint32_t shards_per_month = 0;
  std::uint64_t connections_per_month = 0;

  friend bool operator==(const CheckpointManifest&,
                         const CheckpointManifest&) = default;
};

/// FNV-1a-64 digest over the StudyOptions fields a journaled frame's bytes
/// depend on (seed, traffic volume, window, catalog, capture fault rates
/// and seed, shard plan). The scan policy is excluded because no scan
/// result is journaled, and the checkpoint/thread/cache knobs because they
/// never change an exported byte: changing any of them must not orphan a
/// journal.
[[nodiscard]] std::uint64_t options_digest(const StudyOptions& options);

/// Builds the manifest describing a run of `options`. The second parameter
/// is unread. Kept for `perfbench/` until the next `[benchmark]` PR.
[[nodiscard]] CheckpointManifest make_manifest(const StudyOptions& options,
                                               std::size_t = 0);

[[nodiscard]] std::vector<std::uint8_t> encode_manifest(
    const CheckpointManifest& manifest);
/// Throws tls::wire::ParseError on malformed bytes or version mismatch.
[[nodiscard]] CheckpointManifest decode_manifest(
    std::span<const std::uint8_t> bytes);

/// Wraps a task payload into a checksummed frame:
///   magic u32, format u32, options_digest u64, kind u8, month u32,
///   slot u32, payload_len u32, payload, fnv1a64-of-all-preceding u64.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    std::uint64_t options_digest, const FrameHeader& header,
    std::span<const std::uint8_t> payload);

struct DecodedFrame {
  FrameHeader header;
  std::uint64_t options_digest = 0;
  std::vector<std::uint8_t> payload;
};

/// Verifies and unwraps one frame. Throws tls::wire::ParseError on bad
/// magic or checksum or a kind other than kPassiveShard (kBadValue),
/// foreign format version (kUnsupported), truncation (kTruncated),
/// trailing bytes (kTrailingBytes), or a declared payload length above
/// `max_payload` (kBadLength, checked before any payload allocation).
/// Never reads out of bounds regardless of input.
[[nodiscard]] DecodedFrame decode_frame(
    std::span<const std::uint8_t> bytes,
    std::uint32_t max_payload = kDefaultMaxFramePayload);

/// The on-disk run journal. Construction replays whatever the directory
/// holds (see Config::resume); append() persists one completed task.
/// Thread-safety: append() may be called concurrently from pool workers;
/// replayed() reads are lock-free because the replay map is immutable
/// after construction (invalidate() quarantines the payload and books the
/// stats but never erases a map entry — callers consume each key once).
class RunJournal {
 public:
  struct Config {
    std::string directory;
    /// false: wipe any existing journal and start cold (checkpointing on,
    /// resume off). true: replay what verifies, quarantine what doesn't.
    bool resume = false;
    CheckpointManifest manifest;
    /// Optional chaos tap for the frame path (frame_* rates); applied to
    /// every appended frame's bytes before they hit the disk.
    tls::faults::FaultInjector* frame_faults = nullptr;
    /// Test seam: raise SIGKILL right after the group containing the Nth
    /// appended frame becomes durable (1-based; 0 disables). This is how
    /// the crash matrix murders the process at deterministic journal
    /// offsets.
    std::size_t kill_after_frames = 0;
    /// Test seam: send the process SIGTERM (::kill, not raise — the
    /// signal must route through whatever sigwait watcher the host
    /// installed) right after the Nth append is handed to the journal
    /// (1-based; 0 disables). Unlike kill_after_frames the frame need
    /// not be durable yet: this is how the signal-drain lane proves a
    /// graceful shutdown flushes the still-lingering group.
    std::size_t term_after_frames = 0;
    /// Ceiling on a replayed frame's declared payload length; frames
    /// announcing more are booked corrupt and quarantined without ever
    /// allocating the claimed size (defends replay against hostile or
    /// bit-rotted length fields).
    std::uint32_t max_frame_bytes = kDefaultMaxFramePayload;
    /// Unread. Kept for `perfbench/` until the next `[benchmark]` PR.
    JournalMode mode = JournalMode::kGrouped;
    /// Flush when this many frames are pending, or when the oldest
    /// pending frame is this old — whichever first.
    std::size_t group_frames = 64;
    std::uint64_t group_ms = 50;
    /// Optional backend override (tests inject MemoryJournalBackend);
    /// null means a PosixJournalBackend over `directory`.
    JournalBackend* backend = nullptr;
  };

  explicit RunJournal(Config config);
  ~RunJournal();

  /// The verified payload for a task, or nullptr when the journal has
  /// nothing usable (not present, torn, corrupt, mismatched). Lock-free.
  [[nodiscard]] const std::vector<std::uint8_t>* replayed(
      FrameKind kind, std::uint32_t month_index, std::uint32_t slot) const;

  /// Hands one completed task's payload to the writer; it is durable once
  /// its group commits (flush() waits for that). Thread-safe. IO failures
  /// are counted, never thrown: checkpointing is an aid, losing a frame
  /// only costs recompute time on the next run.
  void append(FrameKind kind, std::uint32_t month_index, std::uint32_t slot,
              std::span<const std::uint8_t> payload);

  /// Discards a replayed frame whose payload failed downstream decoding:
  /// quarantines its payload and books it corrupt. The task is then
  /// recomputed by the caller.
  void invalidate(FrameKind kind, std::uint32_t month_index,
                  std::uint32_t slot);

  /// Books one task outcome for the report (true = served from journal).
  void note_task(bool replayed_from_journal);

  /// Blocks until every frame appended so far is durable (or dropped).
  /// Call at phase boundaries before trusting the journal's contents.
  void flush();

  /// Folds the journal's telemetry (writer histograms/counters, backend
  /// IO-error taxonomy) into `out`. All entries are timing=true — journal
  /// health is wall-clock/IO-dependent, never part of exported bytes.
  void collect_metrics(tls::telemetry::MetricsRegistry& out) const;

  [[nodiscard]] tls::analysis::RecoveryReport snapshot_report() const;

  [[nodiscard]] const std::string& directory() const {
    return config_.directory;
  }

 private:
  struct ReplayedFrame {
    std::vector<std::uint8_t> payload;
    bool usable = false;  // false after invalidate()
  };
  using FrameKey = std::tuple<std::uint8_t, std::uint32_t, std::uint32_t>;

  void replay();
  /// Fires the term_after_frames signal-drain seam (no-op when disabled).
  /// Called with mutex_ held, right after appended_ is bumped.
  void fire_term_seam();
  /// Replays one frame from a scanned segment group through the
  /// acceptance pipeline: decode, digest check, dedupe. Rejects are
  /// quarantined.
  void accept_frame(std::vector<std::uint8_t>&& bytes, bool accept_any);
  /// Scans every segment: frames of checksummed groups feed
  /// accept_frame(); torn tails are quarantined and scan-truncated.
  void replay_segments(bool accept_frames);
  /// Writes rejected bytes into the quarantine sidecar, recording the
  /// path in the report.
  void quarantine_bytes(const std::string& name,
                        std::span<const std::uint8_t> bytes);

  Config config_;
  std::string quarantine_dir_;
  std::unique_ptr<JournalBackend> owned_backend_;
  JournalBackend* backend_ = nullptr;
  std::unique_ptr<GroupCommitWriter> writer_;
  std::uint32_t next_segment_id_ = 1;  // first id the writer may use
  // Immutable after replay() returns — the lock-free read contract.
  std::map<FrameKey, ReplayedFrame> frames_;
  mutable std::mutex mutex_;  // guards report_ and append-side state
  tls::analysis::RecoveryReport report_;
  std::size_t appended_ = 0;
};

}  // namespace tls::study
