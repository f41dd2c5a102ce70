#include "core/study.hpp"

#include <algorithm>
#include <filesystem>

#include "analysis/csv.hpp"

#include "core/shard.hpp"
#include "fingerprint/fingerprint.hpp"
#include "notary/snapshot.hpp"
#include "telemetry/stopwatch.hpp"
#include "tlscore/timeline.hpp"

namespace tls::study {

using tls::analysis::MonthlyChart;
using tls::analysis::Series;
using tls::core::Month;
using tls::notary::MonthlyStats;

LongitudinalStudy::LongitudinalStudy(StudyOptions options)
    : options_(options),
      catalog_(options.full_catalog ? tls::clients::Catalog::standard()
                                    : tls::clients::Catalog::core_only()),
      database_(build_database(catalog_)),
      servers_(tls::servers::ServerPopulation::standard()) {
  market_ = std::make_unique<tls::population::MarketModel>(
      tls::population::MarketModel::standard(catalog_));
  monitor_ = std::make_unique<tls::notary::PassiveMonitor>(&database_);
  scanner_ =
      std::make_unique<tls::scan::ActiveScanner>(servers_, options_.scan_policy);
}

void LongitudinalStudy::open_journal() {
  if (options_.checkpoint_dir.empty()) return;
  if (options_.checkpoint_faults.frame_total() +
          options_.checkpoint_faults.group_total() >
      0) {
    frame_injector_ = std::make_unique<tls::faults::FaultInjector>(
        options_.checkpoint_faults, options_.checkpoint_fault_seed);
  }
  RunJournal::Config config;
  config.directory = options_.checkpoint_dir;
  config.resume = options_.resume;
  config.manifest = make_manifest(options_);
  config.frame_faults = frame_injector_.get();
  config.kill_after_frames = options_.checkpoint_kill_after_frames;
  config.term_after_frames = options_.checkpoint_term_after_frames;
  config.group_frames = options_.journal_group_frames;
  config.group_ms = options_.journal_group_ms;
  journal_ = std::make_unique<RunJournal>(std::move(config));
  drain_journal_.store(journal_.get(), std::memory_order_release);
}

void LongitudinalStudy::drain_checkpoint() {
  // The journal is created on the run() thread before any worker spawns;
  // a signal watcher calling this mid-run therefore observes either a
  // fully-constructed journal or none at all (in which case there is
  // nothing to lose). flush() is thread-safe against concurrent append().
  if (auto* journal = drain_journal_.load(std::memory_order_acquire)) {
    journal->flush();
  }
}

tls::analysis::RecoveryReport LongitudinalStudy::recovery() const {
  tls::analysis::RecoveryReport report;
  if (journal_ != nullptr) report = journal_->snapshot_report();
  // Checkpoint frames persist monitor state (including taxonomy stats)
  // but not the telemetry registry: after a resume the phase timings and
  // fault-trigger counters cover only the recomputed tasks.
  report.telemetry_partial = report.resumed && report.tasks_skipped > 0;
  return report;
}

tls::population::TrafficGenerator& LongitudinalStudy::worker_generator() {
  const auto id = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(worker_gen_mutex_);
  auto& slot = worker_gens_[id];
  if (slot == nullptr) {
    slot = std::make_unique<tls::population::TrafficGenerator>(*market_,
                                                               servers_, 0);
  }
  return *slot;
}

std::unique_ptr<tls::notary::PassiveMonitor> LongitudinalStudy::compute_shard(
    Month month, std::size_t shard, std::size_t count, TaskStamps& stamps) {
  const auto lane = static_cast<std::uint64_t>(month.index());
  auto mon = std::make_unique<tls::notary::PassiveMonitor>(&database_);
  mon->set_fast_observe(options_.fast_observe);
  std::unique_ptr<tls::faults::FaultInjector> injector;
  if (options_.faults.total() > 0) {
    injector = std::make_unique<tls::faults::FaultInjector>(
        options_.faults,
        tls::core::rng_stream_seed(options_.fault_seed, lane, shard));
    mon->set_fault_injector(injector.get());
  }
  // Worker-local generator, re-seeded per task: every cache it carries
  // is a pure function of the models, so the stream (and every exported
  // byte) is identical to a freshly constructed generator's — but the
  // gen-cache templates compile once per worker instead of once per task.
  tls::population::TrafficGenerator& gen = worker_generator();
  gen.set_gen_cache(options_.gen_cache);
  gen.reseed(tls::core::rng_stream_seed(options_.seed, lane, shard));
  const auto gen_before = gen.gen_cache_stats();
  const tls::telemetry::Stopwatch task_watch;
  std::uint64_t observe_us = 0;
  // Batched hand-off: one virtual-call boundary per 256 events instead of
  // per event; the generator's RNG stream is unchanged.
  gen.generate_month_batched(
      month, count, 256,
      [&](std::span<const tls::population::ConnectionEvent> events) {
        const tls::telemetry::Stopwatch sw;
        mon->observe_span(events);
        observe_us += sw.elapsed_us();
      });
  mon->set_fault_injector(nullptr);
  const std::uint64_t total_us = task_watch.elapsed_us();
  stamps.computed = true;
  stamps.start_us = task_watch.start_us();
  stamps.generate_us = total_us > observe_us ? total_us - observe_us : 0;
  stamps.observe_us = observe_us;
  // Deltas against the task-start snapshot: the worker generator's cache
  // (and its stats) persists across tasks.
  const auto& gs = gen.gen_cache_stats();
  stamps.gen = {gs.template_hits - gen_before.template_hits,
                gs.template_misses - gen_before.template_misses,
                gs.bypasses - gen_before.bypasses,
                gs.plan_hits - gen_before.plan_hits,
                gs.plan_misses - gen_before.plan_misses,
                gs.template_bytes - gen_before.template_bytes};
  if (injector != nullptr) stamps.faults = injector->stats().applied;
  return mon;
}

void LongitudinalStudy::fold_task(Month month, std::size_t shard,
                                  std::size_t count, const TaskStamps& st,
                                  const tls::notary::PassiveMonitor& monitor,
                                  std::uint32_t lane) {
  const auto& buckets = tls::telemetry::wide_latency_buckets_us();
  if (st.replay_tried) {
    trace_.add({"checkpoint_replay", "checkpoint", st.replay_start_us,
                st.replay_us, lane, {}});
  }
  // A replayed task carries no stamps and its decoded monitor no counts.
  if (!st.computed) return;
  metrics_
      .histogram("tls_repro_pipeline_generate_us", buckets, "",
                 "Traffic-generation share of each shard task")
      .record(st.generate_us);
  metrics_
      .histogram("tls_repro_pipeline_observe_us", buckets, "",
                 "Monitor-ingest share of each shard task")
      .record(st.observe_us);
  metrics_
      .counter("tls_repro_pipeline_shard_tasks_total", "",
               "Passive (month, shard) tasks computed")
      .add();
  monitor.collect_metrics(metrics_);
  // template_hits and bypasses are per-connection facts (functions of the
  // plan); the warmth counters (misses, plan hits/misses, resident bytes)
  // depend on which worker ran which tasks, so they carry the
  // schedule-derived flag and stay out of the deterministic digest.
  const struct {
    const char* name;
    std::uint64_t value;
    bool warmth;
  } gen_counters[] = {
      {"tls_repro_gen_cache_template_hits_total", st.gen.template_hits, false},
      {"tls_repro_gen_cache_bypass_total", st.gen.bypasses, false},
      {"tls_repro_gen_cache_template_misses_total", st.gen.template_misses,
       true},
      {"tls_repro_gen_cache_plan_hits_total", st.gen.plan_hits, true},
      {"tls_repro_gen_cache_plan_misses_total", st.gen.plan_misses, true},
      {"tls_repro_gen_cache_template_bytes_total", st.gen.template_bytes,
       true},
  };
  for (const auto& [name, value, warmth] : gen_counters) {
    if (value == 0) continue;
    metrics_
        .counter(name, "", "Producer-side GenCache template/plan activity",
                 warmth)
        .add(value);
  }
  for (std::size_t k = 1; k < tls::faults::kFaultKindCount; ++k) {
    if (st.faults[k] == 0) continue;
    const auto kind = static_cast<tls::faults::FaultKind>(k);
    std::string label = "kind=\"";
    label += tls::faults::fault_kind_name(kind);
    label += '"';
    metrics_
        .counter("tls_repro_faults_applied_total", label,
                 "Faults the chaos tap injected, by kind")
        .add(st.faults[k]);
  }
  // The generate/observe split interleaves per batch; render the two
  // shares as contiguous child spans under the task span.
  const std::uint64_t t0 = st.start_us;
  const std::uint64_t total_us = st.generate_us + st.observe_us;
  trace_.add({"generate", "passive", t0, st.generate_us, lane, {}});
  trace_.add(
      {"observe", "passive", t0 + st.generate_us, st.observe_us, lane, {}});
  trace_.add({"shard_task",
              "passive",
              t0,
              total_us,
              lane,
              {{"month", static_cast<std::uint64_t>(month.index())},
               {"shard", shard},
               {"connections", count}}});
  if (!st.journaled) return;
  metrics_
      .histogram("tls_repro_checkpoint_encode_us", buckets, "",
                 "Monitor-state snapshot encode time per frame")
      .record(st.encode_us);
  metrics_
      .histogram("tls_repro_checkpoint_append_us", buckets, "",
                 "Frame hand-off to the journal writer, per frame")
      .record(st.append_us);
  // The frame is encoded and appended right after the task's last batch.
  const std::uint64_t enc0 = t0 + total_us;
  trace_.add({"checkpoint_encode",
              "checkpoint",
              enc0,
              st.encode_us,
              lane,
              {{"bytes", st.payload_bytes}}});
  trace_.add({"checkpoint_append", "checkpoint", enc0 + st.encode_us,
              st.append_us, lane, {}});
}

tls::fp::FingerprintDatabase LongitudinalStudy::build_database(
    const tls::clients::Catalog& catalog) {
  tls::fp::FingerprintDatabase db;
  tls::core::Rng rng(7);
  for (const auto& profile : catalog.profiles()) {
    for (const auto& cfg : profile.versions) {
      // Shuffling clients have no stable fingerprint to harvest.
      if (cfg.randomizes_cipher_order) continue;
      const auto hello = tls::clients::make_client_hello(cfg, rng, "db.test");
      const auto fp = tls::fp::extract_fingerprint(hello);
      db.add(fp, tls::fp::SoftwareLabel{profile.name, profile.cls,
                                        cfg.version_label, cfg.version_label});
    }
  }
  return db;
}

void LongitudinalStudy::run() {
  if (ran_) return;
  ran_ = true;
  // Deterministic shard plan: every month is split into a fixed number of
  // shards, each driving its own traffic generator (and fault injector)
  // seeded by rng_stream(seed, month, shard). The plan — shard counts,
  // stream seeds, and the (month, shard) merge order below — depends only
  // on StudyOptions, never on `threads`, which merely schedules the shard
  // tasks. Result: bit-identical figures at every thread count.
  const std::size_t shards =
      std::max<std::size_t>(1, options_.shards_per_month);
  const auto counts =
      tls::core::shard_counts(options_.connections_per_month, shards);

  struct ShardTask {
    Month month;
    std::size_t shard = 0;
    std::size_t count = 0;
  };
  std::vector<ShardTask> tasks;
  tasks.reserve(static_cast<std::size_t>(options_.window.size()) * shards);
  for (Month m = options_.window.begin_month; m <= options_.window.end_month;
       ++m) {
    for (std::size_t s = 0; s < shards; ++s) {
      if (counts[s] > 0) tasks.push_back({m, s, counts[s]});
    }
  }

  open_journal();
  std::vector<std::unique_ptr<tls::notary::PassiveMonitor>> shard_monitors(
      tasks.size());
  std::vector<TaskStamps> stamps(tasks.size());
  tls::core::ThreadPool pool(options_.threads);
  pool.run(tasks.size(), [&](std::size_t i) {
    const ShardTask& task = tasks[i];
    const auto month_index = static_cast<std::uint32_t>(task.month.index());
    const auto slot = static_cast<std::uint32_t>(task.shard);
    TaskStamps& st = stamps[i];
    if (journal_ != nullptr) {
      // Resume path: a verified journal frame replaces the whole task.
      // Absorbing the decoded monitor is bit-identical to absorbing the
      // one that wrote the frame, so replayed and recomputed shards mix
      // freely without changing a single exported byte.
      if (const auto* payload = journal_->replayed(FrameKind::kPassiveShard,
                                                   month_index, slot)) {
        const tls::telemetry::Stopwatch replay;
        st.replay_tried = true;
        st.replay_start_us = replay.start_us();
        try {
          shard_monitors[i] = std::make_unique<tls::notary::PassiveMonitor>(
              tls::notary::decode_monitor_state(*payload, &database_));
          st.replay_us = replay.elapsed_us();
          journal_->note_task(true);
          return;
        } catch (const tls::wire::ParseError&) {
          // Framing verified but the payload didn't decode: quarantine and
          // fall through to an ordinary recompute.
          st.replay_us = replay.elapsed_us();
          journal_->invalidate(FrameKind::kPassiveShard, month_index, slot);
        }
      }
    }
    auto mon = compute_shard(task.month, task.shard, task.count, st);
    if (journal_ != nullptr) {
      const tls::telemetry::Stopwatch enc;
      const auto payload = tls::notary::encode_monitor_state(*mon);
      st.encode_us = enc.elapsed_us();
      st.payload_bytes = payload.size();
      const tls::telemetry::Stopwatch app;
      journal_->append(FrameKind::kPassiveShard, month_index, slot, payload);
      st.append_us = app.elapsed_us();
      st.journaled = true;
      journal_->note_task(false);
    }
    // Parked until the plan-order absorb: keep the aggregates only.
    mon->release_scratch();
    shard_monitors[i] = std::move(mon);
  });
  // Phase boundary: everything the passive phase appended is durable (or
  // dropped, to be recomputed on resume) before we aggregate.
  if (journal_ != nullptr) journal_->flush();

  // Late aggregation in plan order — the only place shard results meet.
  {
    tls::telemetry::Span absorb_span(trace_, "absorb", "passive", 0);
    auto& absorb_us = metrics_.histogram(
        "tls_repro_pipeline_absorb_us",
        tls::telemetry::wide_latency_buckets_us(), "",
        "Shard-monitor merge time per absorbed shard");
    for (const auto& mon : shard_monitors) {
      const tls::telemetry::Stopwatch sw;
      monitor_->absorb(*mon);
      absorb_us.record(sw.elapsed_us());
    }
  }
  // Fold the task stamps in the same fixed plan order as the monitors, so
  // the deterministic metrics are independent of which threads ran which
  // tasks. Lane 0 is the study's; task i renders on lane i + 1.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    fold_task(tasks[i].month, tasks[i].shard, tasks[i].count, stamps[i],
              *shard_monitors[i], static_cast<std::uint32_t>(i + 1));
  }
  collect_run_metrics(pool);
}

void LongitudinalStudy::collect_run_metrics(const tls::core::ThreadPool& pool) {
  // ---- error taxonomy + quarantine ring ----
  for (std::size_t s = 0; s < tls::notary::kIngestStageCount; ++s) {
    const auto stage = static_cast<tls::notary::IngestStage>(s);
    const std::uint64_t n = monitor_->errors().stage_total(stage);
    if (n == 0) continue;
    std::string label = "stage=\"";
    label += tls::notary::ingest_stage_name(stage);
    label += '"';
    metrics_
        .counter("tls_repro_notary_parse_errors_total", label,
                 "Record parse failures, by ingest stage")
        .value = n;
  }
  const auto& ring = monitor_->quarantine();
  metrics_
      .gauge("tls_repro_quarantine_occupancy", "",
             "Quarantined records currently retained in the ring")
      .set(ring.size());
  metrics_
      .gauge("tls_repro_quarantine_capacity", "",
             "Quarantine ring capacity")
      .set(ring.capacity());
  metrics_
      .counter("tls_repro_quarantine_pushed_total", "",
               "Records ever quarantined (including evicted)")
      .value = ring.total_pushed();

  // ---- dataset totals ----
  metrics_
      .counter("tls_repro_notary_connections_total", "",
               "Connections the merged monitor ingested")
      .value = monitor_->total_connections();
  metrics_
      .counter("tls_repro_notary_fingerprintable_total", "",
               "Connections within the fingerprint-feature window")
      .value = monitor_->fingerprintable_connections();

  // ---- pool accounting (wall-clock / schedule dependent) ----
  const auto ps = pool.stats();
  metrics_
      .counter("tls_repro_pool_tasks_total", "",
               "Task-grid indices executed by the thread pool")
      .value = ps.tasks;
  metrics_
      .counter("tls_repro_pool_busy_us", "",
               "Summed task-body wall time across lanes", /*timing=*/true)
      .value = ps.busy_us;
  metrics_
      .counter("tls_repro_pool_wall_us", "",
               "Summed run() grid durations", /*timing=*/true)
      .value = ps.wall_us;
  metrics_
      .gauge("tls_repro_pool_threads_running", "",
             "Threads that run tasks: the workers plus the draining caller",
             /*timing=*/true)
      .set(pool.size() + 1);

  // ---- journal health (writer histograms, IO taxonomy, torn bytes) ----
  if (journal_ != nullptr) journal_->collect_metrics(metrics_);

  // ---- checkpoint recovery (gauge semantics: refreshed, not summed) ----
  const auto rep = recovery();
  metrics_
      .gauge("tls_repro_checkpoint_frames_replayed", "",
             "Journal frames verified and replayed", /*timing=*/true)
      .set(rep.frames_replayed);
  metrics_
      .gauge("tls_repro_checkpoint_frames_quarantined", "",
             "Journal frames rejected (corrupt/mismatched/duplicate)",
             /*timing=*/true)
      .set(rep.frames_corrupt + rep.frames_mismatched + rep.frames_duplicate);
  metrics_
      .gauge("tls_repro_checkpoint_tasks_skipped", "",
             "Tasks satisfied from the journal", /*timing=*/true)
      .set(rep.tasks_skipped);
  metrics_
      .gauge("tls_repro_telemetry_partial", "",
             "1 when timings/fault counters cover only the resumed run's "
             "recomputed slice",
             /*timing=*/true)
      .set(rep.telemetry_partial ? 1 : 0);
  metrics_
      .gauge("tls_repro_checkpoint_groups_committed", "",
             "Journal groups committed (written this run + replayed)",
             /*timing=*/true)
      .set(rep.groups_committed);
  metrics_
      .gauge("tls_repro_checkpoint_frames_dropped", "",
             "Frames the journal writer could not make durable (recomputed "
             "on resume)",
             /*timing=*/true)
      .set(rep.frames_dropped);
}

const tls::telemetry::MetricsRegistry& LongitudinalStudy::metrics() {
  run();
  return metrics_;
}

const tls::telemetry::TraceRecorder& LongitudinalStudy::trace() {
  run();
  return trace_;
}

const tls::notary::PassiveMonitor& LongitudinalStudy::monitor() {
  run();
  return *monitor_;
}

Series LongitudinalStudy::monthly_series(const std::string& name,
                                         const StatProjector& projector) {
  run();
  Series s;
  s.name = name;
  s.values.reserve(static_cast<std::size_t>(options_.window.size()));
  static const MonthlyStats kEmpty{};
  for (Month m = options_.window.begin_month; m <= options_.window.end_month;
       ++m) {
    const auto* stats = monitor_->month(m);
    s.values.push_back(projector(stats != nullptr ? *stats : kEmpty));
  }
  return s;
}

std::vector<std::string> LongitudinalStudy::export_figures(
    const std::string& directory) {
  std::filesystem::create_directories(directory);
  std::vector<std::string> written;
  const std::pair<const char*, MonthlyChart> figures[] = {
      {"fig1_versions.csv", figure1_versions()},
      {"fig2_cipher_classes.csv", figure2_negotiated_classes()},
      {"fig3_advertised.csv", figure3_advertised_classes()},
      {"fig4_fp_support.csv", figure4_fingerprint_support()},
      {"fig5_positions.csv", figure5_relative_positions()},
      {"fig6_rc4_advertised.csv", figure6_rc4_advertised()},
      {"fig7_weak_advertised.csv", figure7_weak_advertised()},
      {"fig8_key_exchange.csv", figure8_key_exchange()},
      {"fig9_aead_negotiated.csv", figure9_aead_negotiated()},
      {"fig10_aead_advertised.csv", figure10_aead_advertised()},
  };
  for (const auto& [name, chart] : figures) {
    const auto path = (std::filesystem::path(directory) / name).string();
    tls::telemetry::Span csv_span(trace_, "csv_render", "export", 0);
    const tls::telemetry::Stopwatch sw;
    tls::analysis::write_csv_file(path, chart);
    metrics_
        .histogram("tls_repro_export_csv_us",
                   tls::telemetry::wide_latency_buckets_us(), "",
                   "CSV figure render+write time per file")
        .record(sw.elapsed_us());
    written.push_back(path);
  }
  const auto scan_path =
      (std::filesystem::path(directory) / "censys_scans.csv").string();
  // One serial probe per (month, segment), in plan order. The whole sweep
  // takes 1-2 ms, so neither a worker pool nor a journal frame per probe
  // pays for itself (DESIGN.md §11): it is recomputed on every run,
  // resumed or not.
  tls::telemetry::Span sweep_span(trace_, "scan_sweep", "scan", 0);
  const auto range = tls::core::censys_window();
  const std::size_t n_segments = servers_.segments().size();
  std::vector<tls::scan::SegmentProbe> probes;
  probes.reserve(static_cast<std::size_t>(range.size()) * n_segments);
  auto& probe_us = metrics_.histogram(
      "tls_repro_scan_probe_us", tls::telemetry::wide_latency_buckets_us(),
      "", "Active-scan segment probe time per (month, segment)");
  for (Month month = range.begin_month; month <= range.end_month; ++month) {
    for (std::size_t si = 0; si < n_segments; ++si) {
      const tls::telemetry::Stopwatch sw;
      probes.push_back(
          scanner_->probe_segment(month, si, /*by_traffic=*/false));
      const std::uint64_t us = sw.elapsed_us();
      probe_us.record(us);
      trace_.add({"scan_probe",
                  "scan",
                  sw.start_us(),
                  us,
                  static_cast<std::uint32_t>(probes.size()),
                  {{"month", static_cast<std::uint64_t>(month.index())},
                   {"segment", si}}});
    }
  }
  tls::analysis::write_scan_csv_file(scan_path,
                                     scanner_->fold_range(range, probes));
  sweep_span.close();
  written.push_back(scan_path);
  return written;
}

std::vector<std::pair<Month, char>> attack_markers() {
  std::vector<std::pair<Month, char>> out;
  const char* ids[] = {"lucky13", "rc4",        "snowden", "heartbleed",
                       "poodle",  "rc4_passwords", "rc4_nomore", "sweet32"};
  const char glyphs[] = {'l', 'r', 's', 'h', 'p', 'w', 'n', '3'};
  for (std::size_t i = 0; i < std::size(ids); ++i) {
    if (const auto* e = tls::core::find_event(ids[i])) {
      out.emplace_back(Month(e->date), glyphs[i]);
    }
  }
  return out;
}

namespace {

double pct_of(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : 100.0 * static_cast<double>(num) /
                        static_cast<double>(den);
}

double version_pct(const MonthlyStats& s, std::uint16_t version) {
  return pct_of(s.negotiated_version_count(version), s.successful);
}

}  // namespace

MonthlyChart LongitudinalStudy::figure1_versions() {
  MonthlyChart c;
  c.title = "Figure 1: Negotiated SSL/TLS versions (% monthly connections)";
  c.range = options_.window;
  c.markers = attack_markers();
  for (const auto& [version, name] :
       std::initializer_list<std::pair<std::uint16_t, const char*>>{
           {0x0300, "SSLv3"},
           {0x0301, "TLSv1.0"},
           {0x0302, "TLSv1.1"},
           {0x0303, "TLSv1.2"}}) {
    c.series.push_back(monthly_series(
        name, [version = version](const MonthlyStats& s) {
          return version_pct(s, version);
        }));
  }
  return c;
}

MonthlyChart LongitudinalStudy::figure2_negotiated_classes() {
  using tls::core::CipherClass;
  MonthlyChart c;
  c.title = "Figure 2: Negotiated RC4 / CBC / AEAD (% monthly connections)";
  c.range = options_.window;
  c.markers = attack_markers();
  for (const auto& [cls, name] :
       std::initializer_list<std::pair<CipherClass, const char*>>{
           {CipherClass::kAead, "AEAD"},
           {CipherClass::kCbc, "CBC"},
           {CipherClass::kRc4, "RC4"}}) {
    c.series.push_back(
        monthly_series(name, [cls = cls](const MonthlyStats& s) {
          return pct_of(s.negotiated_class_count(cls), s.successful);
        }));
  }
  return c;
}

MonthlyChart LongitudinalStudy::figure3_advertised_classes() {
  MonthlyChart c;
  c.title =
      "Figure 3: Clients advertising RC4 / DES / 3DES / AEAD (% monthly "
      "connections)";
  c.range = options_.window;
  c.markers = attack_markers();
  c.series.push_back(monthly_series("AEAD", [](const MonthlyStats& s) {
    return s.pct(s.adv_aead);
  }));
  c.series.push_back(monthly_series("RC4", [](const MonthlyStats& s) {
    return s.pct(s.adv_rc4);
  }));
  c.series.push_back(monthly_series("DES", [](const MonthlyStats& s) {
    return s.pct(s.adv_des);
  }));
  c.series.push_back(monthly_series("3DES", [](const MonthlyStats& s) {
    return s.pct(s.adv_3des);
  }));
  return c;
}

MonthlyChart LongitudinalStudy::figure4_fingerprint_support() {
  MonthlyChart c;
  c.title =
      "Figure 4: Distinct monthly fingerprints supporting RC4 / DES / 3DES "
      "/ AEAD (%)";
  c.range = {tls::notary::PassiveMonitor::fp_start(),
             options_.window.end_month};
  const auto fp_pct = [](const MonthlyStats& s, std::uint8_t flag) {
    if (s.fingerprints.empty()) return 0.0;
    std::size_t n = 0;
    for (const auto& [hash, flags] : s.fingerprints) {
      if ((flags & flag) != 0) ++n;
    }
    return 100.0 * static_cast<double>(n) /
           static_cast<double>(s.fingerprints.size());
  };
  run();
  for (const auto& [flag, name] :
       std::initializer_list<std::pair<std::uint8_t, const char*>>{
           {tls::notary::kFpAead, "AEAD"},
           {tls::notary::kFpRc4, "RC4"},
           {tls::notary::kFpDes, "DES"},
           {tls::notary::kFp3Des, "3DES"}}) {
    Series s;
    s.name = name;
    static const MonthlyStats kEmpty{};
    for (Month m = c.range.begin_month; m <= c.range.end_month; ++m) {
      const auto* stats = monitor_->month(m);
      s.values.push_back(fp_pct(stats != nullptr ? *stats : kEmpty, flag));
    }
    c.series.push_back(std::move(s));
  }
  return c;
}

MonthlyChart LongitudinalStudy::figure5_relative_positions() {
  MonthlyChart c;
  c.title =
      "Figure 5: Average relative position of first AEAD/CBC/RC4/DES/3DES "
      "cipher (%)";
  c.range = {tls::notary::PassiveMonitor::fp_start(),
             options_.window.end_month};
  run();
  using Getter = const tls::notary::PositionAccumulator& (*)(const MonthlyStats&);
  const std::pair<const char*, Getter> defs[] = {
      {"AEAD", [](const MonthlyStats& s) -> const tls::notary::PositionAccumulator& { return s.pos_aead; }},
      {"CBC", [](const MonthlyStats& s) -> const tls::notary::PositionAccumulator& { return s.pos_cbc; }},
      {"RC4", [](const MonthlyStats& s) -> const tls::notary::PositionAccumulator& { return s.pos_rc4; }},
      {"DES", [](const MonthlyStats& s) -> const tls::notary::PositionAccumulator& { return s.pos_des; }},
      {"3DES", [](const MonthlyStats& s) -> const tls::notary::PositionAccumulator& { return s.pos_3des; }},
  };
  static const MonthlyStats kEmpty{};
  for (const auto& [name, getter] : defs) {
    Series s;
    s.name = name;
    for (Month m = c.range.begin_month; m <= c.range.end_month; ++m) {
      const auto* stats = monitor_->month(m);
      s.values.push_back(getter(stats != nullptr ? *stats : kEmpty).average() *
                         100.0);
    }
    c.series.push_back(std::move(s));
  }
  return c;
}

MonthlyChart LongitudinalStudy::figure6_rc4_advertised() {
  MonthlyChart c;
  c.title =
      "Figure 6: Connections where the client advertises RC4 (% monthly)";
  c.range = options_.window;
  c.markers = attack_markers();
  c.series.push_back(monthly_series("RC4 advertised", [](const MonthlyStats& s) {
    return s.pct(s.adv_rc4);
  }));
  return c;
}

MonthlyChart LongitudinalStudy::figure7_weak_advertised() {
  MonthlyChart c;
  c.title =
      "Figure 7: Clients advertising Export / Anonymous / NULL ciphers (% "
      "monthly connections)";
  c.range = options_.window;
  c.series.push_back(monthly_series("Export", [](const MonthlyStats& s) {
    return s.pct(s.adv_export);
  }));
  c.series.push_back(monthly_series("Anonymous", [](const MonthlyStats& s) {
    return s.pct(s.adv_anon);
  }));
  c.series.push_back(monthly_series("Null", [](const MonthlyStats& s) {
    return s.pct(s.adv_null);
  }));
  c.y_max = 40;
  return c;
}

MonthlyChart LongitudinalStudy::figure8_key_exchange() {
  using tls::core::KexClass;
  MonthlyChart c;
  c.title =
      "Figure 8: Negotiated RSA / DHE / ECDHE key exchange (% monthly "
      "connections)";
  c.range = options_.window;
  if (const auto* e = tls::core::find_event("snowden")) {
    c.markers.emplace_back(Month(e->date), 's');
  }
  for (const auto& [cls, name] :
       std::initializer_list<std::pair<KexClass, const char*>>{
           {KexClass::kDhe, "DHE"},
           {KexClass::kEcdhe, "ECDHE"},
           {KexClass::kRsa, "RSA"}}) {
    c.series.push_back(
        monthly_series(name, [cls = cls](const MonthlyStats& s) {
          // TLS 1.3 connections always use an ephemeral (EC)DHE exchange.
          if (cls == KexClass::kEcdhe) {
            return pct_of(s.negotiated_kex_count(KexClass::kEcdhe) +
                              s.negotiated_kex_count(KexClass::kTls13),
                          s.successful);
          }
          return pct_of(s.negotiated_kex_count(cls), s.successful);
        }));
  }
  return c;
}

MonthlyChart LongitudinalStudy::figure9_aead_negotiated() {
  using tls::core::AeadKind;
  MonthlyChart c;
  c.title =
      "Figure 9: Negotiated AEAD ciphers (% monthly connections)";
  c.range = options_.window;
  c.series.push_back(monthly_series("AEAD Total", [](const MonthlyStats& s) {
    return pct_of(s.negotiated_class_count(tls::core::CipherClass::kAead),
                  s.successful);
  }));
  for (const auto& [kind, name] :
       std::initializer_list<std::pair<AeadKind, const char*>>{
           {AeadKind::kAes128Gcm, "AES128-GCM"},
           {AeadKind::kAes256Gcm, "AES256-GCM"},
           {AeadKind::kChaCha20Poly1305, "ChaCha20-Poly1305"}}) {
    c.series.push_back(
        monthly_series(name, [kind = kind](const MonthlyStats& s) {
          return pct_of(s.negotiated_aead_count(kind), s.successful);
        }));
  }
  return c;
}

MonthlyChart LongitudinalStudy::figure10_aead_advertised() {
  MonthlyChart c;
  c.title =
      "Figure 10: Connections advertising AES-GCM / ChaCha20-Poly1305 / "
      "AES-CCM (% monthly)";
  c.range = options_.window;
  c.series.push_back(monthly_series("AES128-GCM", [](const MonthlyStats& s) {
    return s.pct(s.adv_aes128gcm);
  }));
  c.series.push_back(monthly_series("AES256-GCM", [](const MonthlyStats& s) {
    return s.pct(s.adv_aes256gcm);
  }));
  c.series.push_back(
      monthly_series("ChaCha20-Poly1305", [](const MonthlyStats& s) {
        return s.pct(s.adv_chacha);
      }));
  c.series.push_back(monthly_series("AES-CCM", [](const MonthlyStats& s) {
    return s.pct(s.adv_ccm);
  }));
  return c;
}

}  // namespace tls::study
