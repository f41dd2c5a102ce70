// study: the batch reproduction as a user runs it — a LongitudinalStudy
// over the full catalog and the 75-month window with the group-commit
// journal on, then run() and export_figures().
//
// The traced run drives the same (month, shard) plan itself through the
// public calls (generate_month_batched, observe_span, encode_monitor_state,
// RunJournal::append/flush, absorb) on a ThreadPool of the same size, so
// each call can carry a span. Its absorbed monitor must digest-equal the
// untraced LongitudinalStudy::monitor() of the same seed.
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "core/checkpoint.hpp"
#include "core/shard.hpp"
#include "core/study.hpp"
#include "daemon/capture.hpp"
#include "notary/snapshot.hpp"
#include "pool.hpp"
#include "probes.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using tls::core::Month;
using tls::study::LongitudinalStudy;
using tls::study::StudyOptions;

/// Every kSampleEvery-th generated connection of the traced plan becomes a
/// capture for the wire/fingerprint/daemon probes.
constexpr std::size_t kSampleEvery = 64;

StudyOptions study_options(const Args& args, const std::string& journal_dir) {
  StudyOptions options;
  options.seed = args.seed;
  options.threads = args.study_threads;
  options.checkpoint_dir = journal_dir;
  return options;
}

std::uint64_t record_key(const tls::population::ConnectionEvent& event,
                         std::vector<std::uint8_t>& scratch) {
  if (!event.client_record.empty()) return fnv1a64(event.client_record);
  event.hello.serialize_record_into(scratch);
  return fnv1a64(scratch);
}

/// Per-month partition and volume gates on a finished monitor.
void check_monitor(const tls::notary::PassiveMonitor& monitor,
                   const StudyOptions& options, Outcome& out) {
  std::uint64_t total = 0;
  for (const auto& [month, s] : monitor.months()) {
    out.gate(s.total == s.successful + s.failures + s.quarantined,
             "study: month " + month.to_string() +
                 " total != successful + failures + quarantined");
    total += s.total;
  }
  out.gate(total == options.connections_per_month *
                        static_cast<std::uint64_t>(options.window.size()),
           "study: connection total != conns/month x months");
}

/// Client records of one month of the study's plan must all differ.
double sample_distinct_ratio(const LongitudinalStudy& study,
                             const StudyOptions& options) {
  const auto market =
      tls::population::MarketModel::standard(study.catalog());
  const Month month = options.window.begin_month;
  const auto counts = tls::core::shard_counts(options.connections_per_month,
                                              options.shards_per_month);
  std::vector<std::uint64_t> keys;
  std::vector<std::uint8_t> scratch;
  for (std::size_t shard = 0; shard < counts.size(); ++shard) {
    tls::population::TrafficGenerator gen(
        market, study.servers(),
        tls::core::rng_stream_seed(options.seed,
                                   static_cast<std::uint64_t>(month.index()),
                                   shard));
    gen.generate_month(month, counts[shard],
                       [&](const tls::population::ConnectionEvent& event) {
                         if (!event.sslv2) {
                           keys.push_back(record_key(event, scratch));
                         }
                       });
  }
  return distinct_ratio(std::move(keys));
}

bool run_untraced(const Args& args, Outcome& out) {
  const std::string scratch = args.scratch + "/study";
  const auto options = study_options(args, scratch + "/journal");
  // ThreadPool(threads) runs `threads` workers plus the calling thread.
  const unsigned running = options.threads + 1;
  info("study.threads_setting", static_cast<double>(options.threads));
  info("study.threads_running", static_cast<double>(running));
  out.gate(running <= cpu_count(), "study: more threads than processors");

  // Set-up is the LongitudinalStudy constructor: catalog, database,
  // servers and market. It is timed kSetupRepeats times on its own, set-up
  // r on processor r mod nproc, each scaled by the reference kernel timed
  // around it on the same processor.
  const ProcessorRotation rotation;
  std::vector<double> setup, setup_raw;
  for (int r = 0; r < kSetupRepeats; ++r) {
    std::filesystem::remove_all(scratch);
    rotation.pin(static_cast<std::size_t>(r));
    const double r0 = reference_ns(3);
    const std::uint64_t t0 = now_ns();
    { const LongitudinalStudy study(options); }
    const double seconds = ns_to_s(now_ns() - t0);
    setup_raw.push_back(seconds);
    setup.push_back(scale_time(seconds, (r0 + reference_ns(3)) / 2));
  }
  rotation.release();

  // Repetitions of run() + export_figures() until the run time is used,
  // each scaled by the reference kernel timed on every processor at once
  // before and after it.
  std::vector<double> walls_us, walls_raw_us;
  std::uint64_t digest = 0, csv_digest = 0, quarantined_total = 0;
  const std::uint64_t conns =
      options.connections_per_month *
      static_cast<std::uint64_t>(options.window.size());
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  double sample_ratio = 1.0;
  for (int rep = 0; rep < 2 || now_ns() < deadline; ++rep) {
    std::filesystem::remove_all(scratch);
    LongitudinalStudy study(options);
    const double r0 = reference_parallel_ns(running, 3);
    const std::uint64_t t0 = now_ns();
    study.run();
    const auto files = study.export_figures(scratch + "/export");
    const double wall_us = ns_to_us(now_ns() - t0);
    walls_raw_us.push_back(wall_us);
    walls_us.push_back(
        scale_time(wall_us, (r0 + reference_parallel_ns(running, 3)) / 2));

    const auto& monitor = study.monitor();
    check_monitor(monitor, options, out);
    quarantined_total += quarantined(monitor);
    const std::uint64_t d = monitor_digest(monitor);
    const std::uint64_t f = files_digest(files);
    if (rep == 0) {
      digest = d;
      csv_digest = f;
      info("study.digest", hex64(d));
      info("study.csv_digest", hex64(f));
      sample_ratio = sample_distinct_ratio(study, options);
    }
    out.gate(d == digest && f == csv_digest,
             "study: repeated run changed the output");
  }
  std::filesystem::remove_all(scratch);
  info("wire.distinct_record_ratio(sample month)", sample_ratio);
  out.gate(sample_ratio == 1.0, "study: a client record was replayed");

  // Each repetition is one result, so its latency is its wall time.
  const double wall_us = best_quartile(walls_us, false);
  info("study.repetitions", static_cast<double>(walls_us.size()));
  info("raw.setup_s", median(setup_raw));
  info("raw.wall_us", best_quartile(walls_raw_us, false));
  out.metrics["setup_s"] = median(setup);
  out.metrics["captures_per_s"] = static_cast<double>(conns) / (wall_us / 1e6);
  out.metrics["latency_p50_us"] = wall_us;
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  out.attempted = conns * walls_us.size();
  out.failed = quarantined_total;
  return true;
}

/// The traced run's own plan driver (see file comment).
struct TracedPlan {
  std::unique_ptr<tls::notary::PassiveMonitor> aggregate;
  GenerationStats gen;
  std::vector<std::uint64_t> record_keys;
  CapturePool samples;
  std::uint64_t wall_ns = 0;     // pool grid + flush + absorb
  std::uint64_t grid_ns = 0;     // pool.run only
  double flush_ns = 0;
  std::uint64_t frames = 0;
};

void run_plan(const Models& models, const StudyOptions& options,
              tls::study::RunJournal& journal, Tracer* tracer,
              TracedPlan& plan) {
  const auto counts = tls::core::shard_counts(options.connections_per_month,
                                              options.shards_per_month);
  struct Task {
    Month month;
    std::size_t shard;
    std::size_t count;
  };
  std::vector<Task> tasks;
  for (Month m = options.window.begin_month; m <= options.window.end_month;
       ++m) {
    for (std::size_t s = 0; s < counts.size(); ++s) {
      if (counts[s] > 0) tasks.push_back({m, s, counts[s]});
    }
  }
  std::vector<std::unique_ptr<tls::notary::PassiveMonitor>> monitors(
      tasks.size());
  std::vector<std::vector<std::uint64_t>> keys(tasks.size());
  std::vector<std::vector<tls::daemon::CapturePayload>> samples(tasks.size());
  std::mutex gens_mutex;
  std::unordered_map<std::thread::id,
                     std::unique_ptr<tls::population::TrafficGenerator>>
      gens;

  const std::uint64_t t0 = now_ns();
  Span root(tracer, "study.plan");
  tls::core::ThreadPool pool(options.threads);
  pool.run(tasks.size(), [&](std::size_t i) {
    const Task& task = tasks[i];
    Span span(tracer, "study.task", root.id(), i);
    auto monitor =
        std::make_unique<tls::notary::PassiveMonitor>(&models.database);
    monitor->set_observe_cache_capacity(options.observe_cache_entries);
    monitor->set_fast_observe(options.fast_observe);
    tls::population::TrafficGenerator* gen = nullptr;
    {
      const std::lock_guard<std::mutex> lock(gens_mutex);
      auto& slot = gens[std::this_thread::get_id()];
      if (slot == nullptr) {
        slot = std::make_unique<tls::population::TrafficGenerator>(
            models.market, models.servers, 0);
      }
      gen = slot.get();
    }
    gen->set_gen_cache(options.gen_cache);
    gen->reseed(tls::core::rng_stream_seed(
        options.seed, static_cast<std::uint64_t>(task.month.index()),
        task.shard));
    std::vector<std::uint8_t> scratch;
    std::size_t seen = 0;
    {
      Span generate(tracer, "population.generate", span.id(), i);
      gen->generate_month_batched(
          task.month, task.count, 256,
          [&](std::span<const tls::population::ConnectionEvent> events) {
            {
              Span hash(tracer, "bench.record_hash", generate.id(), i);
              for (const auto& event : events) {
                if (!event.sslv2) {
                  keys[i].push_back(record_key(event, scratch));
                  if (seen % kSampleEvery == 0) {
                    samples[i].push_back(
                        tls::daemon::capture_from_event(event));
                  }
                }
                ++seen;
              }
            }
            Span observe(tracer, "notary.observe_span", generate.id(), i);
            monitor->observe_span(events);
          });
    }
    std::vector<std::uint8_t> payload;
    {
      Span encode(tracer, "notary.snapshot_encode", span.id(), i);
      payload = tls::notary::encode_monitor_state(*monitor);
    }
    {
      Span append(tracer, "core.journal_append", span.id(), i);
      journal.append(tls::study::FrameKind::kPassiveShard,
                     static_cast<std::uint32_t>(task.month.index()),
                     static_cast<std::uint32_t>(task.shard), payload);
    }
    monitors[i] = std::move(monitor);
  });
  plan.grid_ns = now_ns() - t0;
  {
    Span flush(tracer, "core.journal_flush", root.id());
    const std::uint64_t f0 = now_ns();
    journal.flush();
    plan.flush_ns = static_cast<double>(now_ns() - f0);
  }
  plan.aggregate =
      std::make_unique<tls::notary::PassiveMonitor>(&models.database);
  for (std::size_t i = 0; i < monitors.size(); ++i) {
    Span absorb(tracer, "notary.absorb", root.id(), i);
    plan.aggregate->absorb(*monitors[i]);
  }
  root.end();
  plan.wall_ns = now_ns() - t0;
  plan.frames = tasks.size();

  for (auto& k : keys) {
    plan.record_keys.insert(plan.record_keys.end(), k.begin(), k.end());
  }
  for (auto& task_samples : samples) {
    for (auto& capture : task_samples) plan.samples.add(std::move(capture));
  }
  for (const auto& [id, gen] : gens) {
    const auto& gs = gen->gen_cache_stats();
    plan.gen.cache.template_hits += gs.template_hits;
    plan.gen.cache.bypasses += gs.bypasses;
    plan.gen.cache.plan_hits += gs.plan_hits;
    plan.gen.cache.plan_misses += gs.plan_misses;
  }
}

bool run_traced(const Args& args, Tracer* tracer, Outcome& out) {
  const std::string scratch = args.scratch + "/study";
  std::filesystem::remove_all(scratch);
  auto& m = out.metrics;
  const Models models(tracer, m);

  // Untraced reference: the user path, for the digest and the overhead.
  const auto options = study_options(args, scratch + "/journal");
  LongitudinalStudy study(options);
  std::uint64_t t0 = now_ns();
  {
    Span span(tracer, "study.run");
    study.run();
  }
  const std::uint64_t run_ns = now_ns() - t0;
  const std::uint64_t reference = monitor_digest(study.monitor());
  info("study.digest", hex64(reference));

  tls::study::RunJournal::Config jc;
  jc.directory = scratch + "/traced_journal";
  jc.manifest =
      tls::study::make_manifest(options, models.servers.segments().size());
  jc.mode = options.journal_mode;
  jc.group_frames = options.journal_group_frames;
  jc.group_ms = options.journal_group_ms;
  tls::study::RunJournal journal(std::move(jc));
  TracedPlan plan;
  run_plan(models, options, journal, tracer, plan);

  const auto& monitor = *plan.aggregate;
  const std::uint64_t digest = monitor_digest(monitor);
  info("study.traced_digest", hex64(digest));
  out.gate(digest == reference,
           "study: traced plan digest != LongitudinalStudy digest");
  check_monitor(monitor, options, out);
  const std::uint64_t conns = monitor.total_connections();
  out.attempted = conns;
  out.failed = quarantined(monitor);
  m["trace.overhead_pct"] =
      100.0 * (static_cast<double>(plan.wall_ns) / static_cast<double>(run_ns) -
               1.0);

  // ---- per-layer numbers from the plan's spans ----
  const auto spans = tracer->spans();
  const auto layers = layer_times(spans);
  const auto per = [&](const char* name, double unit_ns, double n) {
    const auto it = layers.find(name);
    return it == layers.end() || n == 0 ? 0.0 : it->second.total_ns / unit_ns / n;
  };
  const auto& generate = layers.at("population.generate");
  plan.gen.generate_ns = generate.self_ns;
  plan.gen.connections = conns;
  generation_metrics(plan.gen, m);
  m["notary.observe_us_per_conn"] =
      per("notary.observe_span", 1e3, static_cast<double>(conns));
  m["notary.absorb_us_per_shard"] =
      per("notary.absorb", 1e3, static_cast<double>(plan.frames));
  m["notary.snapshot_encode_us_per_frame"] =
      per("notary.snapshot_encode", 1e3, static_cast<double>(plan.frames));
  journal_metrics(journal, layers.at("core.journal_append").total_ns,
                  plan.frames, plan.flush_ns, m);
  double task_ns = 0;
  std::set<std::uint32_t> task_threads;
  for (const auto& s : spans) {
    if (std::string_view(s.name) != "study.task") continue;
    task_ns += static_cast<double>(s.end_ns - s.start_ns);
    task_threads.insert(s.thread);
  }
  const auto threads = static_cast<double>(task_threads.size());
  m["core.threads_running"] = threads;
  m["core.pool_busy_ratio"] =
      task_ns / (static_cast<double>(plan.grid_ns) * threads);
  info("study.threads_setting", static_cast<double>(options.threads));
  out.gate(task_threads.size() <= cpu_count(),
           "study: more threads ran tasks than there are processors");

  monitor_metrics(monitor, m);
  const double ratio = distinct_ratio(std::move(plan.record_keys));
  m["wire.distinct_record_ratio"] = ratio;
  out.gate(ratio == 1.0, "study: a client record was replayed");
  probe_wire_fingerprint(plan.samples, models.database, kProbeCaptures, *tracer,
                         m);
  probe_frame_decode(plan.samples, kProbeCaptures, tracer, m);

  const auto scans = probe_scan(models.servers, tracer, m);
  probe_export(monitor, scans, scratch + "/export", tracer, m);

  std::string error;
  if (!probe_daemon(plan.samples, models.database, args.paced_rate, args.seed,
                    tracer, m, error)) {
    out.gate(false, "study: daemon probe failed: " + error);
  }
  return true;
}

}  // namespace

bool run_study(const Args& args, Tracer* tracer, Outcome& out) {
  return tracer == nullptr ? run_untraced(args, out)
                           : run_traced(args, tracer, out);
}

}  // namespace perfbench
