// NotaryDaemon — the live-ingestion service (DESIGN.md §16).
//
// A resident process that accepts checksummed capture frames
// (daemon/protocol.hpp) over TCP from many concurrent sensor clients and
// feeds them through the existing PassiveMonitor byte path (observe_wire)
// on a sharded worker pool. The batch study pipeline stays the reference
// implementation; the daemon is the serving story for the ROADMAP's
// "heavy traffic from millions of users" north star, engineered so that
// OVERLOAD DEGRADES GRACEFULLY instead of OOMing:
//
//   * bounded per-shard ingest queues — admission control happens at
//     enqueue time; a full queue sheds the capture instead of growing
//   * credit-based backpressure — clients learn "slow down" through
//     kCreditGrant frames instead of the kernel buffering forever
//   * honest loss accounting — every offered capture ends up in exactly
//     one of {ingested, shed, malformed}; sheds and wire-level parse
//     failures are booked through the PR 1 ErrorTaxonomy/QuarantineRing
//     machinery, so the loss is measurable, not silent
//   * slow-loris defense — a connection stalled mid-frame past
//     idle_timeout_ms is booked and dropped
//   * clean SIGTERM drain — stop accepting, quiesce the queues, flush
//     the checkpoint journal (the study's RunJournal, core/checkpoint.hpp),
//     emit a final checksummed snapshot, exit 0; kill -9 at any point
//     still resumes from the last durable journal group
//
// Threading model: one event-loop thread owns every socket (poll(2),
// non-blocking IO, per-connection outbound buffers); `shards` worker
// threads own one PassiveMonitor each and drain their bounded queue.
// Captures are routed to a shard by FNV-1a-64 of the ClientHello record,
// a pure function of the bytes, so routing is reproducible. A worker pops
// its whole queue under one lock, observes that batch, and hands the
// completions back under one lock: at the batch's end, or earlier once
// its observes since the last hand-back reach a fixed time budget. The
// event loop batches the resolved credits into grant frames. Each side
// wakes the other only on an empty to non-empty edge: the event loop
// notifies a worker when its queue was empty, and a worker writes the
// wake pipe when the completion list was. The admission bound
// (shard_queue_depth) counts the queue and the jobs of the worker's
// current batch it has not handed back.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "daemon/protocol.hpp"
#include "notary/monitor.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"

namespace tls::fp {
class FingerprintDatabase;
}

namespace tls::study {
class RunJournal;
}

namespace tls::daemon {

/// The most shards a daemon runs: the flight recorder keeps one ring per
/// shard plus the event loop's, and decode_flight reads at most
/// kFlightMaxRings rings, so more shards would write a FLIGHT.bin that the
/// daemon's own decoder refuses. NotaryDaemon::start() rejects more.
inline constexpr std::size_t kMaxShards = tls::telemetry::kFlightMaxRings - 1;

/// The shard of `shards` that observes `capture`: FNV-1a-64 of the client
/// record modulo `shards`, or the month index modulo `shards` when the
/// client record is empty (an SSLv2 tally). Per-shard arrival order feeds
/// the position sums, so every router of captures must ask this function.
[[nodiscard]] std::size_t shard_of(const CapturePayload& capture,
                                   std::size_t shards);

struct DaemonConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one back via port().
  std::uint16_t port = 0;
  /// Worker threads / monitor shards, at most kMaxShards. Shard routing is
  /// content-hashed, and the shard count never changes any aggregate byte
  /// (absorb is arrival-order-invariant over integer counters).
  std::size_t shards = 4;
  /// Bounded depth of each shard's ingest queue — the admission-control
  /// knob. It bounds the admitted-but-unobserved captures, queued plus
  /// the worker's current batch; a capture arriving past it is shed (and
  /// counted).
  std::size_t shard_queue_depth = 1024;
  /// Credits granted to each connection on accept; the client may have at
  /// most this many unresolved captures in flight.
  std::uint32_t credit_window = 64;
  /// Declared-length cap enforced before any payload allocation.
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// A connection stalled mid-frame longer than this is dropped.
  std::uint64_t idle_timeout_ms = 10000;
  std::size_t max_connections = 256;
  /// Kept for `perfbench/` until the next `[benchmark]` PR. Not read.
  std::size_t observe_cache_entries = 0;
  /// Labeled-coverage database for the shard monitors (nullable).
  const tls::fp::FingerprintDatabase* database = nullptr;

  /// Test seam: artificial per-capture observe cost (microseconds). Lets
  /// the overload tests pin the sustainable rate low enough that a modest
  /// loadgen reliably drives the daemon past capacity.
  std::uint64_t observe_delay_us_for_test = 0;

  // ---- durability (empty checkpoint_dir disables) ----
  /// Group-commit journal directory; periodic checkpoint epochs and the
  /// drain snapshot live here.
  std::string checkpoint_dir{};
  /// Replay an existing journal: the newest valid epoch frame becomes the
  /// aggregate baseline instead of starting from zero.
  bool resume = false;
  /// Write a checkpoint epoch every N ingested captures (0 = only at
  /// drain). Epochs are full aggregate snapshots — the newest valid one
  /// wins on resume, so torn tails just fall back one epoch.
  std::uint64_t checkpoint_every = 0;

  // ---- observability (DESIGN.md §17) ----
  // The flight recorder, slowest-frame exemplars, gauge ticker and stage
  // histograms always run; only the two post-mortem outlets below are
  // configurable.
  /// Periodic FLIGHT.bin autodump cadence (0 disables; needs
  /// checkpoint_dir). This is what makes a kill -9 leave a post-mortem:
  /// the file on disk is at most one interval stale.
  std::uint64_t flight_autodump_ms = 0;
  /// Install SIGSEGV/SIGABRT/SIGBUS handlers that dump the rings to
  /// checkpoint_dir/FLIGHT.bin (async-signal-safe). Process-global state,
  /// so off by default — embedding tests keep their signal dispositions.
  bool crash_handler = false;
};

/// Monotonic outcome ledger. Invariant (after drain):
///   offered == ingested + shed + malformed
/// `shed` includes queue-full rejects AND credit violations (both are
/// refused admission); `malformed` is checksum-valid frames whose capture
/// payload failed to parse. Wire-level framing failures poison the whole
/// connection and are counted in frame_errors, not per capture.
struct DaemonCounters {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t ingested = 0;
  std::uint64_t shed = 0;
  std::uint64_t malformed = 0;
  std::uint64_t credit_violations = 0;
  std::uint64_t frame_errors = 0;
  std::uint64_t idle_timeouts = 0;
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t sslv2 = 0;
  std::uint64_t checkpoint_epochs = 0;
};

/// The options digest of the daemon journal's MANIFEST and frames. Daemon
/// frames carry aggregate snapshots, not per-(month,shard) study tasks;
/// the distinct digest makes a study journal and a daemon journal book
/// each other's frames as mismatched instead of replaying them.
inline constexpr std::uint64_t kDaemonOptionsDigest = 0xdae302e9a11dull;

class NotaryDaemon {
 public:
  explicit NotaryDaemon(DaemonConfig config);
  ~NotaryDaemon();

  NotaryDaemon(const NotaryDaemon&) = delete;
  NotaryDaemon& operator=(const NotaryDaemon&) = delete;

  /// Binds, listens, replays the journal when resuming, and spawns the
  /// event loop + workers. Returns false (with a message in last_error())
  /// on more than kMaxShards shards or a bind/listen failure.
  bool start();

  /// The bound port (valid after start(); useful with port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const std::string& last_error() const { return last_error_; }
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// Begins a graceful drain: stop accepting, stop reading, quiesce the
  /// shard queues, flush the journal, write the final snapshot, exit the
  /// loop. Safe to call from a signal-watcher thread; idempotent.
  void request_stop();

  /// Blocks until the drain completes and all threads are joined.
  void join();

  /// Live read of the outcome ledger, safe from any thread. The words are
  /// not taken at one instant, but every read is closure-consistent:
  ///   offered >= ingested + shed + malformed,
  ///   offered >= admitted + shed + malformed,   admitted >= ingested,
  /// and after join() offered == ingested + shed + malformed.
  [[nodiscard]] DaemonCounters counters() const;

  /// The kStats body: sorted `key=value` lines (parseable by the CI gate).
  [[nodiscard]] std::string stats_text();

  /// Daemon + per-shard telemetry folded into one registry (counters,
  /// stage-latency histograms, queue gauges, per-thread CPU time,
  /// wire-error taxonomy, journal health).
  [[nodiscard]] tls::telemetry::MetricsRegistry merged_metrics();

  /// The live aggregate: resume baseline + every shard monitor absorbed
  /// in shard order. Stalls admission briefly (locks each shard monitor).
  [[nodiscard]] tls::notary::PassiveMonitor aggregate_monitor();

  /// Epoch index restored from the journal (0 when starting fresh).
  [[nodiscard]] std::uint64_t resumed_epoch() const { return resumed_epoch_; }

  /// The kTrace body: stage-percentile lines followed by the slowest-frame
  /// exemplar waterfall (parseable text).
  [[nodiscard]] std::string trace_text();
  /// Chrome trace_event JSON of the current exemplar set: one lane per
  /// exemplar, one complete span per stage (loads in Perfetto directly).
  [[nodiscard]] std::string trace_chrome();

 private:
  struct Connection;
  struct Shard;
  struct Job;
  struct StageStamps;
  struct Completion;
  struct Exemplar;
  struct TracePlane;
  struct TickerPlane;
  struct ThreadCpu;

  void event_loop();
  void worker_loop(std::size_t shard_index);
  void accept_ready();
  bool read_ready(Connection& conn);
  bool process_frame(Connection& conn, const FrameView& frame);
  void handle_capture(Connection& conn, std::span<const std::uint8_t> payload);
  bool flush_outbound(Connection& conn);
  void close_connection(std::uint64_t id);
  void drain_completions();
  void sweep_idle(std::uint64_t now_ms);
  void wake();

  // Observability plane: flight rings, exemplars, gauges, stage histograms.
  void flight(std::size_t lane, tls::telemetry::FlightEventKind kind,
              std::uint32_t a, std::uint64_t b);
  void finalize_completion(const Completion& done, std::uint64_t complete_us,
                           std::uint64_t grant_us);
  void sample_gauges(std::uint64_t now_ms);
  void write_flight_files();
  /// Each stage's histogram (kStageNames order) merged across shards.
  [[nodiscard]] std::vector<tls::telemetry::Histogram> merged_stages();
  /// Both trace windows' exemplars, slowest first, at most kTraceExemplars.
  [[nodiscard]] std::vector<Exemplar> slowest_exemplars();

  /// Opens (or, with resume, replays) the journal under checkpoint_dir and
  /// restores the newest decodable epoch as the aggregate baseline.
  void open_journal();
  void checkpoint_epoch();
  void write_snapshot_files();

  DaemonConfig config_;
  std::uint16_t port_ = 0;
  std::string last_error_;
  int listen_fd_ = -1;
  int wake_rx_ = -1;
  int wake_tx_ = -1;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> workers_stop_{false};

  std::thread event_thread_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::uint64_t next_conn_id_ = 1;
  /// Event-loop passes (tls_repro_daemon_loop_iterations_total).
  std::atomic<std::uint64_t> loop_iterations_{0};
  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;

  // Worker -> event loop completion channel (resolved captures with their
  // stage timelines; credits resolve and stage attribution finalizes when
  // the event loop drains these).
  std::mutex completion_mutex_;
  std::vector<Completion> completions_;
  /// The event thread's side of the completion swap; cleared and kept, so
  /// the two buffers trade places without reallocating.
  std::vector<Completion> resolved_;
  /// Event-thread decode target. Admission swaps it with the ring slot's
  /// payload, so capture buffers are recycled instead of reallocated.
  CapturePayload scratch_;

  // Observability plane: the flight rings are built by start(), once the
  // shard count is known to be valid; the rest in the constructor.
  std::unique_ptr<tls::telemetry::FlightRecorder> flight_;
  std::unique_ptr<TracePlane> trace_;
  std::unique_ptr<TickerPlane> ticker_;
  std::unique_ptr<ThreadCpu> event_cpu_;
  std::uint64_t start_us_ = 0;
  std::uint64_t last_flight_dump_ms_ = 0;
  bool journal_drop_booked_ = false;
  bool crash_handler_installed_ = false;

  // Wire-level loss accounting (event thread writes; stats readers lock).
  std::mutex wire_mutex_;
  tls::notary::ErrorTaxonomy wire_errors_;
  tls::notary::QuarantineRing wire_quarantine_{64, 48};

  struct AtomicCounters;
  std::unique_ptr<AtomicCounters> counters_;

  // Durability plane (created by open_journal when checkpoint_dir set).
  std::unique_ptr<tls::study::RunJournal> journal_;
  std::unique_ptr<tls::notary::PassiveMonitor> baseline_;
  std::uint64_t resumed_epoch_ = 0;
  /// Checksum-valid epochs skipped on resume because they did not decode.
  std::uint64_t resume_decode_failures_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t last_checkpoint_ingested_ = 0;
};

}  // namespace tls::daemon
