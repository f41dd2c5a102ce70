// Serial-vs-parallel wall time for the sharded study runner. Runs the
// full passive pipeline (and the active sweep via export paths is covered
// elsewhere) at each thread count, checks the figures stay bit-identical
// to the serial run, and reports the speedup. A second section measures
// the checkpoint journal: cold journaled run (checkpoint write overhead)
// vs resumed run (every shard replayed from disk instead of recomputed).
//
// A third section runs once with telemetry enabled and prints the phase
// attribution (generate vs observe vs absorb vs checkpoint share of summed
// task time) from the study's own metrics registry.
//
// A fourth section measures the group-commit journal (one fsync per
// group). The run must stay bit-identical to the serial figures and issue
// strictly fewer fsyncs than it commits frames — that structural gate is
// machine-independent; the measured checkpoint share is logged against
// the <15% target rather than hard-asserted.
//
// Environment knobs (shared with the figure benches):
//   TLS_STUDY_CPM      connections per month (default 20000 here)
//   TLS_STUDY_SEED     simulation seed
//   TLS_STUDY_THREADS  comma list of thread counts (default "0,2,4,8")
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "telemetry/export.hpp"

namespace {

double run_once(tls::study::StudyOptions opts, unsigned threads,
                std::string* fingerprint_csv) {
  opts.threads = threads;
  tls::study::LongitudinalStudy study(opts);
  const double wall = bench::timed_seconds([&] { study.run(); });
  // A cheap whole-pipeline digest: the Fig. 2 CSV covers negotiated
  // counters and the month partition; byte equality across thread counts
  // is the determinism contract.
  *fingerprint_csv = tls::analysis::to_csv(study.figure2_negotiated_classes());
  return wall;
}

/// Histogram sum (µs) for a registry metric, 0 when absent.
std::uint64_t hist_sum_us(const tls::telemetry::MetricsRegistry& reg,
                          const char* name) {
  const auto* m = reg.find(name);
  return m == nullptr ? 0 : m->histogram.sum;
}

}  // namespace

int main() {
  tls::study::StudyOptions opts = bench::default_options();
  if (std::getenv("TLS_STUDY_CPM") == nullptr) {
    opts.connections_per_month = 20000;
  }
  opts.full_catalog = false;

  std::vector<unsigned> thread_counts{0, 2, 4, 8};
  if (const char* env = std::getenv("TLS_STUDY_THREADS")) {
    thread_counts.clear();
    const std::string s(env);
    for (std::size_t pos = 0; pos < s.size();) {
      const auto comma = s.find(',', pos);
      thread_counts.push_back(static_cast<unsigned>(
          std::strtoul(s.substr(pos, comma - pos).c_str(), nullptr, 10)));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  std::printf("== bench_perf_study: sharded runner wall time ==\n");
  std::printf("connections_per_month=%zu window=%d months shards=%zu\n\n",
              opts.connections_per_month, opts.window.size(),
              opts.shards_per_month);

  std::string serial_csv;
  double serial_wall = 0;
  double plain_wall_last = 0;  // un-journaled wall at the last thread count
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"threads", "wall (s)", "speedup", "figures"});
  for (const unsigned threads : thread_counts) {
    std::string csv;
    const double wall = run_once(opts, threads, &csv);
    if (threads == thread_counts.front()) {
      serial_csv = csv;
      serial_wall = wall;
    }
    plain_wall_last = wall;
    char wall_s[32], speed_s[32];
    std::snprintf(wall_s, sizeof(wall_s), "%.3f", wall);
    std::snprintf(speed_s, sizeof(speed_s), "%.2fx",
                  wall > 0 ? serial_wall / wall : 0.0);
    rows.push_back({std::to_string(threads), wall_s, speed_s,
                    csv == serial_csv ? "bit-identical" : "MISMATCH"});
  }
  std::fputs(tls::analysis::render_table(rows).c_str(), stdout);

  for (const auto& row : rows) {
    if (row.back() == "MISMATCH") {
      std::fprintf(stderr,
                   "FAIL: thread count %s produced different figures\n",
                   row.front().c_str());
      return 1;
    }
  }

  // ---- checkpoint journal: write overhead and resume speedup ----
  std::printf("\n== checkpoint journal: cold vs resumed ==\n");
  const auto ckpt_dir =
      std::filesystem::temp_directory_path() / "tls_bench_ckpt";
  std::filesystem::remove_all(ckpt_dir);
  auto jopts = opts;
  jopts.threads = thread_counts.back();
  jopts.checkpoint_dir = ckpt_dir.string();

  std::string cold_csv, resumed_csv;
  double cold_wall = 0, resumed_wall = 0;
  {
    tls::study::LongitudinalStudy study(jopts);
    cold_wall = bench::timed_seconds([&] { study.run(); });
    cold_csv = tls::analysis::to_csv(study.figure2_negotiated_classes());
  }
  jopts.resume = true;
  {
    tls::study::LongitudinalStudy study(jopts);
    resumed_wall = bench::timed_seconds([&] { study.run(); });
    resumed_csv = tls::analysis::to_csv(study.figure2_negotiated_classes());
    const auto report = study.recovery();
    std::printf("replayed %llu frames, skipped %llu tasks, recomputed %llu\n",
                static_cast<unsigned long long>(report.frames_replayed),
                static_cast<unsigned long long>(report.tasks_skipped),
                static_cast<unsigned long long>(report.tasks_recomputed));
  }
  std::filesystem::remove_all(ckpt_dir);

  char cold_s[32], resumed_s[32], over_s[32], speed_s[32];
  std::snprintf(cold_s, sizeof(cold_s), "%.3f", cold_wall);
  std::snprintf(resumed_s, sizeof(resumed_s), "%.3f", resumed_wall);
  std::snprintf(over_s, sizeof(over_s), "%+.1f%%",
                plain_wall_last > 0
                    ? 100.0 * (cold_wall - plain_wall_last) / plain_wall_last
                    : 0.0);
  std::snprintf(speed_s, sizeof(speed_s), "%.2fx",
                resumed_wall > 0 ? cold_wall / resumed_wall : 0.0);
  std::vector<std::vector<std::string>> jrows;
  jrows.push_back({"run", "wall (s)", "vs plain", "figures"});
  jrows.push_back({"cold + journal", cold_s, over_s,
                   cold_csv == serial_csv ? "bit-identical" : "MISMATCH"});
  jrows.push_back({"resumed", resumed_s, std::string(speed_s) + " faster",
                   resumed_csv == serial_csv ? "bit-identical" : "MISMATCH"});
  std::fputs(tls::analysis::render_table(jrows).c_str(), stdout);

  if (cold_csv != serial_csv || resumed_csv != serial_csv) {
    std::fprintf(stderr, "FAIL: checkpointed run changed exported bytes\n");
    return 1;
  }

  // ---- phase attribution: where does a journaled run spend its time? ----
  // One telemetry-enabled run; the study's own registry provides the
  // generate / observe / absorb / checkpoint split (summed task time, so
  // shares are thread-count independent up to scheduling noise).
  std::printf("\n== phase attribution (telemetry-enabled run) ==\n");
  auto topts = jopts;
  topts.resume = false;
  topts.telemetry = true;
  topts.checkpoint_dir = ckpt_dir.string();
  std::filesystem::remove_all(ckpt_dir);
  std::string tel_csv;
  {
    tls::study::LongitudinalStudy study(topts);
    study.run();
    tel_csv = tls::analysis::to_csv(study.figure2_negotiated_classes());
    const auto& reg = study.metrics();
    const std::pair<const char*, const char*> phases[] = {
        {"generate", "tls_repro_pipeline_generate_us"},
        {"observe", "tls_repro_pipeline_observe_us"},
        {"absorb", "tls_repro_pipeline_absorb_us"},
        {"checkpoint encode", "tls_repro_checkpoint_encode_us"},
        {"checkpoint append", "tls_repro_checkpoint_append_us"},
    };
    std::uint64_t total_us = 0;
    for (const auto& [label, metric] : phases) {
      total_us += hist_sum_us(reg, metric);
    }
    std::vector<std::vector<std::string>> prows;
    prows.push_back({"phase", "summed task time (s)", "share"});
    for (const auto& [label, metric] : phases) {
      const std::uint64_t us = hist_sum_us(reg, metric);
      char time_s[32], share_s[32];
      std::snprintf(time_s, sizeof(time_s), "%.3f",
                    static_cast<double>(us) / 1e6);
      std::snprintf(share_s, sizeof(share_s), "%.1f%%",
                    total_us > 0
                        ? 100.0 * static_cast<double>(us) /
                              static_cast<double>(total_us)
                        : 0.0);
      prows.push_back({label, time_s, share_s});
    }
    std::fputs(tls::analysis::render_table(prows).c_str(), stdout);
  }
  std::filesystem::remove_all(ckpt_dir);
  if (tel_csv != serial_csv) {
    std::fprintf(stderr, "FAIL: telemetry-enabled run changed exported bytes\n");
    return 1;
  }
  std::printf("telemetry run figures: bit-identical\n");

  // ---- journal: group commit ----
  // Checkpoint share = (encode + append + writer flush) / total summed
  // phase time. `append` is just the enqueue; the write+fsync cost lives
  // in the writer's flush histogram.
  std::printf("\n== journal: group commit ==\n");
  struct Journal {
    double wall = 0;
    double share = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t frames = 0;
    bool identical = false;
  } grouped;
  {
    std::filesystem::remove_all(ckpt_dir);
    auto lopts = topts;
    // Serial: summed task time on oversubscribed thread pools absorbs
    // scheduler preemption into whichever phase got descheduled, which
    // makes the share noise. One worker gives exact attribution (the
    // writer thread still runs concurrently).
    lopts.threads = 0;
    tls::study::LongitudinalStudy study(lopts);
    grouped.wall = bench::timed_seconds([&] { study.run(); });
    grouped.identical =
        tls::analysis::to_csv(study.figure2_negotiated_classes()) ==
        serial_csv;
    const auto& reg = study.metrics();
    const std::uint64_t flush_us =
        hist_sum_us(reg, "tls_repro_journal_flush_us");
    const std::uint64_t ckpt_us =
        hist_sum_us(reg, "tls_repro_checkpoint_encode_us") +
        hist_sum_us(reg, "tls_repro_checkpoint_append_us") + flush_us;
    const std::uint64_t total_us =
        hist_sum_us(reg, "tls_repro_pipeline_generate_us") +
        hist_sum_us(reg, "tls_repro_pipeline_observe_us") +
        hist_sum_us(reg, "tls_repro_pipeline_absorb_us") + ckpt_us;
    grouped.share = total_us > 0 ? 100.0 * static_cast<double>(ckpt_us) /
                                       static_cast<double>(total_us)
                                 : 0.0;
    const auto* fsync = reg.find("tls_repro_journal_fsync_total");
    grouped.fsyncs = fsync == nullptr ? 0 : fsync->counter.value;
    grouped.frames = study.recovery().tasks_recomputed;
  }
  std::filesystem::remove_all(ckpt_dir);

  {
    char wall_b[32], share_b[32];
    std::snprintf(wall_b, sizeof(wall_b), "%.3f", grouped.wall);
    std::snprintf(share_b, sizeof(share_b), "%.1f%%", grouped.share);
    const std::vector<std::vector<std::string>> mrows = {
        {"wall (s)", "ckpt share", "journal fsyncs", "frames", "figures"},
        {wall_b, share_b, std::to_string(grouped.fsyncs),
         std::to_string(grouped.frames),
         grouped.identical ? "bit-identical" : "MISMATCH"}};
    std::fputs(tls::analysis::render_table(mrows).c_str(), stdout);
  }
  std::printf("checkpoint share: %.1f%%; target < 15%%: %s\n", grouped.share,
              grouped.share < 15.0 ? "met" : "missed (logged, not gated)");

  if (!grouped.identical) {
    std::fprintf(stderr, "FAIL: journaled run changed exported bytes\n");
    return 1;
  }

  // ---- gen-cache: template fast path vs legacy generation ----
  // Two serial telemetry-enabled runs (no journal) differing only in the
  // gen_cache toggle. The generate-phase histogram isolates producer time
  // exactly; figures must stay byte-identical (the toggle's contract), and
  // the >=2x generate-phase speedup is logged against its target.
  std::printf("\n== generate phase: gen-cache off vs on ==\n");
  struct GenLane {
    const char* label;
    bool on;
    double wall = 0;
    double gen_s = 0;
    bool identical = false;
  };
  GenLane glanes[] = {
      {"gen-cache off", false},
      {"gen-cache on", true},
  };
  for (GenLane& lane : glanes) {
    auto gopts = opts;
    gopts.threads = 0;
    gopts.telemetry = true;
    gopts.gen_cache = lane.on;
    tls::study::LongitudinalStudy study(gopts);
    lane.wall = bench::timed_seconds([&] { study.run(); });
    lane.identical =
        tls::analysis::to_csv(study.figure2_negotiated_classes()) ==
        serial_csv;
    lane.gen_s =
        static_cast<double>(hist_sum_us(
            study.metrics(), "tls_repro_pipeline_generate_us")) /
        1e6;
  }
  std::vector<std::vector<std::string>> grows;
  grows.push_back({"config", "wall (s)", "generate phase (s)", "figures"});
  for (const GenLane& lane : glanes) {
    char wall_b[32], gen_b[32];
    std::snprintf(wall_b, sizeof(wall_b), "%.3f", lane.wall);
    std::snprintf(gen_b, sizeof(gen_b), "%.3f", lane.gen_s);
    grows.push_back({lane.label, wall_b, gen_b,
                     lane.identical ? "bit-identical" : "MISMATCH"});
  }
  std::fputs(tls::analysis::render_table(grows).c_str(), stdout);
  const double gen_speedup =
      glanes[1].gen_s > 0 ? glanes[0].gen_s / glanes[1].gen_s : 0.0;
  std::printf("generate phase: %.2fx faster with gen-cache on; "
              "target >= 2x: %s\n",
              gen_speedup,
              gen_speedup >= 2.0 ? "met" : "missed (logged, not gated)");
  if (!glanes[0].identical || !glanes[1].identical) {
    std::fprintf(stderr, "FAIL: gen-cache toggle changed exported bytes\n");
    return 1;
  }

  if (grouped.frames > 0 && grouped.fsyncs >= grouped.frames) {
    std::fprintf(stderr,
                 "FAIL: group commit issued %llu fsyncs for %llu frames "
                 "(no amortization)\n",
                 static_cast<unsigned long long>(grouped.fsyncs),
                 static_cast<unsigned long long>(grouped.frames));
    return 1;
  }
  return 0;
}
