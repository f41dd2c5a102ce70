// LongitudinalStudy — the paper's end-to-end pipeline as a single API:
//   build the client catalog  -> harvest the fingerprint database (§4)
//   build the server population
//   generate the connection stream -> feed the passive monitor (§5, §6)
//   sweep the server population with the active scanner (§3.2)
// and expose one accessor per paper figure/table. This is the library's
// primary public entry point; the bench binaries are thin wrappers over it.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/render.hpp"
#include "clients/catalog.hpp"
#include "core/checkpoint.hpp"
#include "faults/injector.hpp"
#include "fingerprint/database.hpp"
#include "notary/monitor.hpp"
#include "population/market.hpp"
#include "population/traffic.hpp"
#include "scan/scanner.hpp"
#include "servers/population.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace tls::core {
class ThreadPool;
}

namespace tls::study {

struct StudyOptions {
  std::uint64_t seed = 42;
  /// Synthetic connections generated per month. The paper's dataset is
  /// ~10^9/month; every figure is a percentage, so this only sets noise.
  std::size_t connections_per_month = 20000;
  tls::core::MonthRange window = tls::core::notary_window();
  /// Full catalog includes the ~1,684-fingerprint Table-2 expansion;
  /// disable for fast tests.
  bool full_catalog = true;
  /// Chaos tap for the passive plane: when any rate is non-zero, every
  /// serialized capture passes through a FaultInjector seeded with
  /// `fault_seed` before reaching the monitor. All-zero (default) keeps
  /// the pipeline byte-identical to the fault-free build.
  tls::faults::FaultConfig faults{};
  std::uint64_t fault_seed = 0xc4a05;
  /// Network model + retry budget for the active plane (default: ideal).
  tls::scan::ScanPolicy scan_policy{};
  /// Worker threads for the sharded runner, on top of the calling thread,
  /// which drains tasks too: N runs N + 1 threads, and 0 (default) keeps
  /// everything on the calling thread. Any value yields the same bytes:
  /// the shard plan, the per-shard rng_stream(seed, month, shard)
  /// derivations, and the (month, shard) merge order are all independent
  /// of thread count, which only decides how shards are scheduled.
  unsigned threads = 0;
  /// Fixed shard fan-out per month. Part of the deterministic shard plan
  /// (it changes which rng stream feeds each connection), so changing it
  /// changes the sampled stream — changing `threads` never does.
  std::size_t shards_per_month = 8;
  /// Kept for `perfbench/` until the next `[benchmark]` PR. Not read.
  std::size_t observe_cache_entries = 0;
  /// Struct-reuse fast path for fault-free observations (see
  /// PassiveMonitor::observe). Off forces the serialize→parse byte path;
  /// outputs are identical either way.
  bool fast_observe = true;
  /// Producer-side template cache (tls::population::GenCache): compiled
  /// hello wire templates + memoized negotiation plans. Off forces the
  /// build-from-scratch path; the RNG stream and every exported byte are
  /// identical either way (tested across threads and fault rates), so —
  /// like fast_observe above — it is excluded from options_digest and a
  /// checkpointed run may resume with it flipped.
  bool gen_cache = true;

  // ---- durable checkpoint/resume (off by default; no byte may change
  //      whether checkpointing is on, off, or resumed mid-run) ----
  /// Journal directory; empty disables checkpointing entirely.
  std::string checkpoint_dir{};
  /// Replay a compatible journal found in checkpoint_dir instead of wiping
  /// it. Frames that fail verification are quarantined and recomputed.
  bool resume = false;
  /// Chaos tap for the journal itself (frame_* rates): soak-tests the
  /// torn/corrupt/duplicate recovery paths. All-zero (default) keeps the
  /// journal bytes pristine.
  tls::faults::FaultConfig checkpoint_faults{};
  std::uint64_t checkpoint_fault_seed = 0x57a7e;
  /// Test seam: SIGKILL the process after this many durable frame appends
  /// (1-based; 0 disables). Drives the crash-matrix tests and CI job.
  std::size_t checkpoint_kill_after_frames = 0;
  /// Test seam: SIGTERM the process (via ::kill, so a sigwait watcher
  /// thread receives it) after this many frame appends — durable or still
  /// lingering in an uncommitted group (1-based; 0 disables). Drives the
  /// signal-drain lane: the watcher must drain_checkpoint() and exit 0
  /// without losing the in-flight group.
  std::size_t checkpoint_term_after_frames = 0;
  /// Unread. Kept for `perfbench/` until the next `[benchmark]` PR.
  JournalMode journal_mode = JournalMode::kGrouped;
  /// Journal group commit. Like every checkpoint knob these are EXCLUDED
  /// from options_digest (they never change an exported byte, so changing
  /// them must not orphan a journal). Flush when this many frames are
  /// pending...
  std::size_t journal_group_frames = 64;
  /// ...or when the oldest pending frame is this old (ms), whichever
  /// comes first. The linger bounds how much completed work a crash can
  /// lose to an uncommitted group; lost frames are recomputed, so the
  /// default favors fsync amortization over a tighter window.
  std::uint64_t journal_group_ms = 50;
};

class LongitudinalStudy {
 public:
  explicit LongitudinalStudy(StudyOptions options = {});

  /// Runs the passive pipeline (idempotent; called lazily by accessors).
  void run();

  [[nodiscard]] const tls::clients::Catalog& catalog() const { return catalog_; }
  [[nodiscard]] const tls::fp::FingerprintDatabase& database() const {
    return database_;
  }
  [[nodiscard]] const tls::servers::ServerPopulation& servers() const {
    return servers_;
  }
  [[nodiscard]] const tls::notary::PassiveMonitor& monitor();
  [[nodiscard]] const tls::scan::ActiveScanner& scanner() const {
    return *scanner_;
  }
  [[nodiscard]] const StudyOptions& options() const { return options_; }

  /// Journal replay accounting for the last run(). All zeros
  /// (resumed=false) when checkpointing is disabled.
  [[nodiscard]] tls::analysis::RecoveryReport recovery() const;

  /// Blocks until every checkpoint frame appended so far is durable:
  /// flushes the group-commit writer's linger buffer and fsyncs. No-op
  /// when checkpointing is off. Safe to call from a signal-watcher thread
  /// while run() is still appending on workers — this is the graceful
  /// SIGINT/SIGTERM hook (a clean Ctrl-C must never lose the in-flight
  /// group; only SIGKILL may).
  void drain_checkpoint();

  // ---- telemetry artifacts (always collected; observability only: no
  //      exported CSV byte depends on them) ----
  /// The metrics registry: the per-task stamps and shard-monitor counts
  /// folded in plan order, plus the post-run stat collection (taxonomy,
  /// quarantine, pool, recovery) and export_figures()' CSV and scan
  /// timings.
  [[nodiscard]] const tls::telemetry::MetricsRegistry& metrics();
  /// Pipeline spans in plan order (one trace lane per shard task, lane 0
  /// for study-level phases).
  [[nodiscard]] const tls::telemetry::TraceRecorder& trace();

  // ---- passive figures (monthly percentage series over options.window) --
  [[nodiscard]] tls::analysis::MonthlyChart figure1_versions();
  [[nodiscard]] tls::analysis::MonthlyChart figure2_negotiated_classes();
  [[nodiscard]] tls::analysis::MonthlyChart figure3_advertised_classes();
  [[nodiscard]] tls::analysis::MonthlyChart figure4_fingerprint_support();
  [[nodiscard]] tls::analysis::MonthlyChart figure5_relative_positions();
  [[nodiscard]] tls::analysis::MonthlyChart figure6_rc4_advertised();
  [[nodiscard]] tls::analysis::MonthlyChart figure7_weak_advertised();
  [[nodiscard]] tls::analysis::MonthlyChart figure8_key_exchange();
  [[nodiscard]] tls::analysis::MonthlyChart figure9_aead_negotiated();
  [[nodiscard]] tls::analysis::MonthlyChart figure10_aead_advertised();

  /// Generic monthly percentage series from a MonthlyStats projection.
  using StatProjector =
      std::function<double(const tls::notary::MonthlyStats&)>;
  [[nodiscard]] tls::analysis::Series monthly_series(
      const std::string& name, const StatProjector& projector);

  /// Writes all ten figures plus the active-scan series as CSV files into
  /// `directory` (created if absent). Returns the file paths written.
  std::vector<std::string> export_figures(const std::string& directory);

  /// Builds the labeled fingerprint database exactly as §4 does: run the
  /// extractor over every catalog config and insert with collision rules.
  static tls::fp::FingerprintDatabase build_database(
      const tls::clients::Catalog& catalog);

 private:
  StudyOptions options_;
  tls::clients::Catalog catalog_;
  tls::fp::FingerprintDatabase database_;
  tls::servers::ServerPopulation servers_;
  std::unique_ptr<tls::population::MarketModel> market_;
  std::unique_ptr<tls::notary::PassiveMonitor> monitor_;
  std::unique_ptr<tls::scan::ActiveScanner> scanner_;
  std::unique_ptr<RunJournal> journal_;
  /// journal_.get(), published with release once the journal is built: a
  /// signal watcher thread (drain_checkpoint) has no other happens-before
  /// edge to the run() thread that constructed it.
  std::atomic<RunJournal*> drain_journal_{nullptr};
  std::unique_ptr<tls::faults::FaultInjector> frame_injector_;
  /// One TrafficGenerator per worker thread, reused (re-seeded) across
  /// shard tasks so the gen-cache templates compile once per worker, not
  /// once per task. Guarded by worker_gen_mutex_ for slot creation; each
  /// thread only ever touches its own generator.
  std::mutex worker_gen_mutex_;
  std::unordered_map<std::thread::id,
                     std::unique_ptr<tls::population::TrafficGenerator>>
      worker_gens_;
  bool ran_ = false;
  tls::telemetry::MetricsRegistry metrics_;
  tls::telemetry::TraceRecorder trace_;

  /// One passive (month, shard) task's telemetry as plain integers:
  /// written by whichever thread runs the task, with no lock and no
  /// registry, and folded into metrics_/trace_ by run() in plan order.
  /// Times are monotonic microseconds.
  struct TaskStamps {
    /// A journal replay was tried (it succeeded unless `computed`).
    bool replay_tried = false;
    std::uint64_t replay_start_us = 0;
    std::uint64_t replay_us = 0;
    /// The task ran: its shard monitor was generated and observed here.
    bool computed = false;
    std::uint64_t start_us = 0;
    std::uint64_t generate_us = 0;
    std::uint64_t observe_us = 0;
    /// The computed monitor was encoded and appended to the journal.
    bool journaled = false;
    std::uint64_t encode_us = 0;
    std::uint64_t append_us = 0;
    std::uint64_t payload_bytes = 0;
    /// The worker generator's cache activity over this task.
    tls::population::GenCache::Stats gen{};
    /// The chaos tap's applied faults, by FaultKind.
    std::array<std::uint64_t, tls::faults::kFaultKindCount> faults{};
  };

  /// Opens (and replays) the journal; no-op without checkpoint_dir.
  void open_journal();
  /// Returns this worker thread's reusable generator (created on first
  /// use). Callers must reseed() it before generating.
  tls::population::TrafficGenerator& worker_generator();
  /// Generates and observes one passive (month, shard) task; returns the
  /// shard's monitor. `stamps` receives the task's timings and counts.
  std::unique_ptr<tls::notary::PassiveMonitor> compute_shard(
      tls::core::Month month, std::size_t shard, std::size_t count,
      TaskStamps& stamps);
  /// Folds one shard task's stamps and its computed monitor's counts into
  /// metrics_ and trace_; `lane` is the task's trace lane.
  void fold_task(tls::core::Month month, std::size_t shard, std::size_t count,
                 const TaskStamps& stamps,
                 const tls::notary::PassiveMonitor& monitor,
                 std::uint32_t lane);
  /// Post-run stat collection: migrates the subsystem stat islands
  /// (taxonomy, quarantine, monitor totals, pool accounting, recovery)
  /// onto the registry.
  void collect_run_metrics(const tls::core::ThreadPool& pool);
};

/// The study's standard attack markers for charts (Figs. 1, 2, 3, 6).
std::vector<std::pair<tls::core::Month, char>> attack_markers();

}  // namespace tls::study
