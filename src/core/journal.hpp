// Segmented, append-only, group-commit journal — the storage engine under
// the study's crash-safe checkpoint layer (core/checkpoint.hpp).
//
// A dedicated writer thread batches completed frames as *group records*
// into large append-only segment files, amortizing ONE fsync per group
// (flush when N frames are pending or the oldest has waited T ms,
// whichever first).
//
// Crash-consistency rule (the durability contract, stated once): a group
// that was never fsynced is as if it was never written. Each group record
// is covered by a trailing FNV-1a-64 checksum, so on replay a segment is
// scanned group-by-group and TRUNCATED at the last checksummed group
// boundary; everything past it (a torn write, a partial group, garbage
// after a power cut) is quarantined as a torn tail and the affected tasks
// are recomputed deterministically. Recovery never aborts the run and
// never yields wrong bytes — the worst crash costs recompute time.
//
// The byte sink is a pluggable JournalBackend: buffered POSIX files for
// production (EINTR/short-write retries with bounded backoff; persistent
// errors surface through a per-stage JournalErrorTaxonomy, never as
// exceptions out of the writer thread) and an in-memory backend for tests
// (simulated power cuts via drop_unsynced(), injected write failures).
// A group the backend cannot make durable, even on a retry in a fresh
// segment, is dropped and counted; its tasks are recomputed on resume.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "telemetry/metrics.hpp"

namespace tls::faults {
class FaultInjector;
}

namespace tls::study {

// ---- per-stage journal IO error taxonomy --------------------------------
// The journal's analogue of the monitor's ErrorTaxonomy: every backend
// failure is booked per (IO stage × errno class) instead of being thrown
// out of the writer thread. kRetried counts transient EINTR/short-write
// retries that eventually succeeded; the other classes are terminal for
// the attempted operation.

enum class JournalStage : std::uint8_t {
  kOpen,      // segment / sidecar open or create
  kWrite,     // buffered append to a segment
  kSync,      // fsync durability barrier
  kRead,      // replay-side segment read
  kTruncate,  // scan-truncation of a torn tail
  kIndex,     // INDEX sidecar maintenance
  kRemove,    // segment removal (cold start / cleanup)
};

inline constexpr std::size_t kJournalStageCount = 7;

std::string_view journal_stage_name(JournalStage stage);

enum class JournalErrorClass : std::uint8_t {
  kRetried,  // EINTR / short write, recovered by retry
  kNoSpace,  // ENOSPC / EDQUOT: the disk is full, not failing
  kIo,       // EIO and friends: the device is failing
  kOther,    // anything else (EBADF, EROFS, ...)
};

inline constexpr std::size_t kJournalErrorClassCount = 4;

std::string_view journal_error_class_name(JournalErrorClass cls);

/// Maps an errno captured at failure time onto an error class.
[[nodiscard]] JournalErrorClass classify_errno(int err);

class JournalErrorTaxonomy {
 public:
  void record(JournalStage stage, JournalErrorClass cls) {
    ++counts_[static_cast<std::size_t>(stage)][static_cast<std::size_t>(cls)];
    ++total_;
  }
  [[nodiscard]] std::uint64_t count(JournalStage stage,
                                    JournalErrorClass cls) const {
    return counts_[static_cast<std::size_t>(stage)]
                  [static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::uint64_t stage_total(JournalStage stage) const {
    std::uint64_t n = 0;
    for (const auto c : counts_[static_cast<std::size_t>(stage)]) n += c;
    return n;
  }
  /// Total terminal failures (retried-and-recovered excluded).
  [[nodiscard]] std::uint64_t failures() const {
    std::uint64_t n = total_;
    for (const auto& row : counts_) {
      n -= row[static_cast<std::size_t>(JournalErrorClass::kRetried)];
    }
    return n;
  }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  void merge(const JournalErrorTaxonomy& other) {
    for (std::size_t s = 0; s < kJournalStageCount; ++s) {
      for (std::size_t c = 0; c < kJournalErrorClassCount; ++c) {
        counts_[s][c] += other.counts_[s][c];
      }
    }
    total_ += other.total_;
  }

 private:
  std::uint64_t counts_[kJournalStageCount][kJournalErrorClassCount] = {};
  std::uint64_t total_ = 0;
};

// ---- pluggable byte sink -------------------------------------------------

/// Storage interface the journal writes through. One segment is open for
/// append at a time; replay reads whole segments back. All operations
/// return false on failure (after booking the error in the taxonomy) —
/// the journal layer decides whether to retry or drop (and recompute).
/// Implementations need not be thread-safe: the group-commit writer is the
/// single append-side caller, and replay happens before the writer starts.
class JournalBackend {
 public:
  virtual ~JournalBackend() = default;

  // -- append side (one open segment at a time) --
  virtual bool open_segment(std::uint32_t id) = 0;
  virtual bool append(std::span<const std::uint8_t> bytes) = 0;
  /// Durability barrier: everything appended so far survives a crash.
  virtual bool sync() = 0;
  virtual void close_segment() = 0;

  // -- replay side --
  [[nodiscard]] virtual std::vector<std::uint32_t> list_segments() = 0;
  virtual bool read_segment(std::uint32_t id,
                            std::vector<std::uint8_t>& out) = 0;
  /// Scan-truncation of a torn tail: shrink segment `id` to `size` bytes.
  virtual bool truncate_segment(std::uint32_t id, std::uint64_t size) = 0;
  virtual bool remove_segment(std::uint32_t id) = 0;

  // -- small sidecar files --
  virtual bool write_manifest(std::span<const std::uint8_t> bytes) = 0;
  virtual bool read_manifest(std::vector<std::uint8_t>& out) = 0;
  /// Appends one record to the INDEX sidecar (buffered, non-durable — the
  /// index is a hint; segment scans are the ground truth).
  virtual bool append_index(std::span<const std::uint8_t> bytes) = 0;
  virtual bool read_index(std::vector<std::uint8_t>& out) = 0;
  virtual bool clear_index() = 0;

  [[nodiscard]] const JournalErrorTaxonomy& errors() const { return errors_; }

 protected:
  JournalErrorTaxonomy errors_;
};

/// Buffered POSIX files under `<directory>/segments/`: `seg_<id>.seg` plus
/// an `INDEX` sidecar; the manifest lives at `<directory>/MANIFEST`.
/// Short writes and EINTR are retried with bounded backoff; ENOSPC and
/// other persistent errors are booked in the taxonomy and surfaced as a
/// false return.
class PosixJournalBackend : public JournalBackend {
 public:
  explicit PosixJournalBackend(std::string directory);
  ~PosixJournalBackend() override;

  bool open_segment(std::uint32_t id) override;
  bool append(std::span<const std::uint8_t> bytes) override;
  bool sync() override;
  void close_segment() override;
  [[nodiscard]] std::vector<std::uint32_t> list_segments() override;
  bool read_segment(std::uint32_t id, std::vector<std::uint8_t>& out) override;
  bool truncate_segment(std::uint32_t id, std::uint64_t size) override;
  bool remove_segment(std::uint32_t id) override;
  bool write_manifest(std::span<const std::uint8_t> bytes) override;
  bool read_manifest(std::vector<std::uint8_t>& out) override;
  bool append_index(std::span<const std::uint8_t> bytes) override;
  bool read_index(std::vector<std::uint8_t>& out) override;
  bool clear_index() override;

 private:
  [[nodiscard]] std::string segment_path(std::uint32_t id) const;

  std::string directory_;
  std::string segments_dir_;
  int fd_ = -1;
  int index_fd_ = -1;
};

/// Everything in RAM, with an explicit durable watermark per segment so
/// tests can simulate a power cut: bytes appended after the last sync()
/// vanish on drop_unsynced(), exactly as an un-fsynced page-cache tail
/// would. fail_appends_after() injects persistent write failures to drive
/// the writer's drop-and-count path.
class MemoryJournalBackend : public JournalBackend {
 public:
  bool open_segment(std::uint32_t id) override;
  bool append(std::span<const std::uint8_t> bytes) override;
  bool sync() override;
  void close_segment() override;
  [[nodiscard]] std::vector<std::uint32_t> list_segments() override;
  bool read_segment(std::uint32_t id, std::vector<std::uint8_t>& out) override;
  bool truncate_segment(std::uint32_t id, std::uint64_t size) override;
  bool remove_segment(std::uint32_t id) override;
  bool write_manifest(std::span<const std::uint8_t> bytes) override;
  bool read_manifest(std::vector<std::uint8_t>& out) override;
  bool append_index(std::span<const std::uint8_t> bytes) override;
  bool read_index(std::vector<std::uint8_t>& out) override;
  bool clear_index() override;

  /// Power-cut simulation: every segment loses its un-synced tail.
  void drop_unsynced();
  /// After `n` more successful appends, every append/sync fails (as a
  /// persistently broken device would). SIZE_MAX disables.
  void fail_appends_after(std::size_t n) { appends_before_failure_ = n; }
  [[nodiscard]] std::uint64_t sync_calls() const { return sync_calls_; }

 private:
  struct Segment {
    std::vector<std::uint8_t> bytes;
    std::size_t synced = 0;  // durable watermark
  };
  std::map<std::uint32_t, Segment> segments_;
  std::vector<std::uint8_t> manifest_;
  bool has_manifest_ = false;
  std::vector<std::uint8_t> index_;
  std::uint32_t open_id_ = 0;
  bool open_ = false;
  std::size_t appends_before_failure_ = static_cast<std::size_t>(-1);
  std::uint64_t sync_calls_ = 0;
};

// ---- group record codec --------------------------------------------------
// One group record packs the frames committed under a single fsync:
//   magic u32 "TLSG", format u32, options_digest u64, frame_count u32,
//   payload_len u32, frame_count × { u32 len, frame bytes },
//   fnv1a64-of-all-preceding u64
// Frames inside are whole encode_frame() blobs, so a bit flip inside a
// committed group is caught twice: the group checksum rejects the group on
// a strict scan, and the per-frame checksum quarantines exactly the
// damaged frame when the group is still otherwise decodable.

/// Serialized size of a group's fixed header (before the frame payload).
inline constexpr std::size_t kGroupHeaderSize = 24;

[[nodiscard]] std::vector<std::uint8_t> encode_group(
    std::uint64_t options_digest,
    std::span<const std::vector<std::uint8_t>> frames);

struct DecodedGroup {
  std::uint64_t options_digest = 0;
  std::vector<std::vector<std::uint8_t>> frames;  // encode_frame() blobs
};

/// Decodes ONE group record from the head of `bytes` (more groups may
/// follow; no trailing-bytes check). Throws tls::wire::ParseError on any
/// structural or checksum violation; never reads out of bounds. On
/// success `*consumed` is the group's total encoded size.
[[nodiscard]] DecodedGroup decode_group(std::span<const std::uint8_t> bytes,
                                        std::size_t* consumed);

/// Result of scanning one segment for committed groups.
struct SegmentScan {
  struct GroupSpan {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };
  /// Frames of every checksummed group, in append order.
  std::vector<std::vector<std::uint8_t>> frames;
  /// (offset, length) of each valid group — what INDEX entries are
  /// cross-checked against.
  std::vector<GroupSpan> boundaries;
  std::uint64_t groups = 0;       // checksum-valid groups found
  std::uint64_t valid_bytes = 0;  // last valid group boundary (offset)
  std::uint64_t torn_bytes = 0;   // bytes past it (torn tail / garbage)
};

/// Walks `bytes` group-by-group, stopping at the first record that fails
/// to decode: everything before the stop point is committed, everything
/// after is a torn tail. Never throws — a segment full of garbage is just
/// a scan with zero groups and size() torn bytes.
[[nodiscard]] SegmentScan scan_segment(std::span<const std::uint8_t> bytes);

// ---- INDEX sidecar codec -------------------------------------------------
// The manifest-side pointer set: one entry per committed group, naming
// where its bytes live. Entries are a replay HINT cross-checked against
// the segment scan — a stale entry (pointing past durable data, or at a
// boundary that is not a committed group) is counted and ignored, never
// trusted. Entry: magic u32 "TLSX", segment u32, offset u64, length u64,
// fnv1a64 u64.

struct IndexEntry {
  std::uint32_t segment = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  friend bool operator==(const IndexEntry&, const IndexEntry&) = default;
};

[[nodiscard]] std::vector<std::uint8_t> encode_index_entry(
    const IndexEntry& entry);
/// Decodes as many valid entries as the blob holds, stopping at the first
/// damaged one (the index is append-only; a torn tail is expected).
[[nodiscard]] std::vector<IndexEntry> decode_index(
    std::span<const std::uint8_t> bytes);

// ---- group-commit writer -------------------------------------------------

/// Dedicated writer thread that turns enqueued frames into group records.
/// append-side threads call enqueue() (cheap: one lock + one move); the
/// writer wakes when kGroupFrames are pending or the oldest pending frame
/// is group_ms old, writes one group, and pays ONE fsync for it.
///
/// Failure policy: any failed append or sync closes the segment (a partial
/// group in it would hide every later group from the replay scan) and the
/// whole group is retried once in a fresh segment. If the retry fails too,
/// the group is dropped and its frames are counted in
/// Stats::dropped_frames; their tasks are recomputed on resume.
class GroupCommitWriter {
 public:
  struct Config {
    std::size_t group_frames = 64;
    /// Linger before committing a partial group. Frames are checkpoint
    /// task results — a crash inside the window just recomputes them — so
    /// the linger trades a tiny recompute window for real fsync
    /// amortization when frames trickle in slower than they batch.
    std::uint64_t group_ms = 50;
    /// Roll to a fresh segment beyond this many bytes.
    std::uint64_t max_segment_bytes = 64ull << 20;
    std::uint64_t options_digest = 0;
    std::uint32_t first_segment_id = 1;
    /// Crash-matrix seam: raise SIGKILL right after the group containing
    /// the Nth frame becomes durable (1-based; 0 disables). Killing after
    /// the fsync guarantees ≥ N frames of forward progress per run, so a
    /// kill-resume loop always terminates.
    std::size_t kill_after_frames = 0;
    /// Serializes FaultInjector access when the injector is shared with
    /// append-side frame faulting (the injector's RNG is not thread-safe).
    std::mutex* faults_mutex = nullptr;
  };

  /// `faults` (nullable) is the checkpoint chaos tap: group_* and
  /// segment-level fault kinds are rolled per committed group.
  GroupCommitWriter(JournalBackend* backend, Config config,
                    tls::faults::FaultInjector* faults);
  ~GroupCommitWriter();

  GroupCommitWriter(const GroupCommitWriter&) = delete;
  GroupCommitWriter& operator=(const GroupCommitWriter&) = delete;

  /// Hands one encoded frame to the writer. Returns immediately;
  /// durability arrives with the frame's group.
  void enqueue(std::vector<std::uint8_t> frame);

  /// Blocks until everything enqueued so far is durable (or dropped).
  void flush();

  /// flush() + join the writer thread. Idempotent; the destructor calls it.
  void stop();

  struct Stats {
    std::uint64_t frames = 0;  // frames committed through groups
    std::uint64_t groups = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t bytes = 0;   // segment bytes written
    std::uint64_t dropped_frames = 0;  // frames of groups that failed twice
  };
  [[nodiscard]] Stats stats() const;

  /// Folds the writer's telemetry (group-size and flush-latency
  /// histograms, fsync/byte counters) into `out`. All wall-clock-derived
  /// metrics are registered timing=true.
  void collect_metrics(tls::telemetry::MetricsRegistry& out) const;

 private:
  struct Pending {
    std::vector<std::uint8_t> frame;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  void writer_loop();
  /// Writes one group of `batch` frames (write + fsync + index entry),
  /// applying any rolled chaos faults. Returns false on backend failure.
  bool commit_group(std::vector<Pending>& batch);
  /// Closes the open segment; the next group goes to a fresh one.
  void roll_segment();

  JournalBackend* backend_;
  Config config_;
  tls::faults::FaultInjector* faults_;

  mutable std::mutex mutex_;
  std::condition_variable wake_cv_;   // writer sleeps here
  std::condition_variable done_cv_;   // flush() waiters sleep here
  std::deque<Pending> pending_;
  std::uint64_t enqueued_ = 0;
  std::uint64_t completed_ = 0;  // durable or dropped
  bool flush_pending_ = false;   // flush() wants an immediate commit
  bool stop_ = false;

  // Writer-thread-only state (no lock needed).
  std::uint32_t segment_id_ = 0;
  std::uint64_t segment_bytes_ = 0;
  bool segment_open_ = false;

  Stats stats_;                                 // guarded by mutex_
  tls::telemetry::MetricsRegistry metrics_;     // guarded by mutex_
  std::thread thread_;
};

// ---- shared durable-file helper -----------------------------------------

/// Durable whole-file write for small sidecars (the manifest, the daemon's
/// snapshot and flight dumps): write `<path>.tmp` (retrying EINTR and
/// short writes with bounded backoff), fsync, rename atomically over
/// `path`, fsync the directory. Returns false on failure
/// (partial temp files removed best-effort); errors are booked into
/// `errors` when non-null.
bool write_file_durable(const std::string& path,
                        std::span<const std::uint8_t> bytes,
                        JournalErrorTaxonomy* errors = nullptr);

}  // namespace tls::study
