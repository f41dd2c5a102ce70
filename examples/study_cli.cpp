// Command-line driver for the library — the tool a downstream user runs.
//
//   study_cli figure <1..10>          render one paper figure as ASCII
//   study_cli scan [YYYY-MM]          one Censys-style sweep (default window)
//   study_cli export <dir> [--checkpoint-dir <ckpt>] [--resume]
//                    [--gen-cache <on|off>]
//                    [--journal-group-frames <n>] [--journal-group-ms <t>]
//                    [--metrics-out <file>] [--trace-out <file>]
//                                     write all figures + scans as CSV;
//                                     with a checkpoint dir the run is
//                                     journaled (crash-safe) and --resume
//                                     replays verified work after a crash;
//                                     the journal batches frames through
//                                     the group-commit segmented journal
//                                     (one fsync per group; size/age
//                                     thresholds set by the
//                                     --journal-group-* knobs);
//                                     --gen-cache toggles the producer-side
//                                     template/negotiation cache (default
//                                     on; off is a byte-identical slow
//                                     path for benchmarking);
//                                     --metrics-out writes METRICS.json (plus
//                                     a .prom Prometheus exposition next to
//                                     it) and prints the run report;
//                                     --trace-out writes Chrome trace JSON
//   study_cli fingerprints <file>     dump the labeled fingerprint DB
//   study_cli identify <hex-record>   fingerprint a raw ClientHello record
//
// Environment: TLS_STUDY_CPM / TLS_STUDY_SEED / TLS_STUDY_CORE as in bench/;
// TLS_STUDY_THREADS sets the worker pool; TLS_STUDY_KILL_AFTER (test/CI
// seam) SIGKILLs the process after N durable journal appends;
// TLS_STUDY_TERM_AFTER (test/CI seam) SIGTERMs it after N appends to
// exercise the graceful-drain path below.
//
// Signals: during `export`, SIGINT/SIGTERM trigger a graceful drain — the
// group-commit journal's linger buffer is flushed and fsynced before the
// process exits 0, so a clean Ctrl-C never loses the in-flight group
// (only SIGKILL can, and --resume recovers that). Implemented as a
// sigwait watcher thread (signals blocked before any worker spawns), the
// same pattern notary_daemon uses.
#include <atomic>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "analysis/csv.hpp"
#include "cli_parse.hpp"
#include "core/study.hpp"
#include "fingerprint/fingerprint.hpp"
#include "fingerprint/io.hpp"
#include "telemetry/export.hpp"

namespace {

tls::study::StudyOptions options_from_env() {
  tls::study::StudyOptions opts;
  opts.connections_per_month = 6000;
  if (const char* cpm = std::getenv("TLS_STUDY_CPM")) {
    opts.connections_per_month =
        static_cast<std::size_t>(std::strtoull(cpm, nullptr, 10));
  }
  if (const char* seed = std::getenv("TLS_STUDY_SEED")) {
    opts.seed = std::strtoull(seed, nullptr, 10);
  }
  if (const char* core = std::getenv("TLS_STUDY_CORE")) {
    opts.full_catalog = std::string(core) != "1";
  }
  if (const char* threads = std::getenv("TLS_STUDY_THREADS")) {
    opts.threads = static_cast<unsigned>(std::strtoul(threads, nullptr, 10));
  }
  if (const char* kill = std::getenv("TLS_STUDY_KILL_AFTER")) {
    opts.checkpoint_kill_after_frames =
        static_cast<std::size_t>(std::strtoull(kill, nullptr, 10));
  }
  if (const char* term = std::getenv("TLS_STUDY_TERM_AFTER")) {
    opts.checkpoint_term_after_frames =
        static_cast<std::size_t>(std::strtoull(term, nullptr, 10));
  }
  return opts;
}

/// Scoped sigwait watcher for the export path: blocks SIGINT/SIGTERM on
/// construction (before the study spawns worker threads, so the mask is
/// inherited process-wide) and drains the checkpoint journal + exits 0 if
/// one arrives mid-export. A run that completes naturally unblocks the
/// watcher on destruction and exits through main as usual.
class SignalDrain {
 public:
  explicit SignalDrain(tls::study::LongitudinalStudy& study) {
    sigemptyset(&sigs_);
    sigaddset(&sigs_, SIGINT);
    sigaddset(&sigs_, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs_, nullptr);
    watcher_ = std::thread([this, &study] {
      int sig = 0;
      sigwait(&sigs_, &sig);
      if (done_.load()) return;  // natural completion woke us
      std::fprintf(stderr,
                   "study_cli: received %s, draining checkpoint journal\n",
                   strsignal(sig));
      study.drain_checkpoint();
      std::fprintf(stderr, "study_cli: journal drained, exiting\n");
      // _Exit: the main thread is still mid-export; everything appended
      // before the signal is durable now, and --resume replays it.
      std::_Exit(0);
    });
  }

  ~SignalDrain() {
    done_.store(true);
    pthread_kill(watcher_.native_handle(), SIGTERM);
    watcher_.join();
    pthread_sigmask(SIG_UNBLOCK, &sigs_, nullptr);
  }

 private:
  sigset_t sigs_{};
  std::atomic<bool> done_{false};
  std::thread watcher_;
};

using tls::cli::parse_long;

int usage() {
  std::fputs(
      "usage: study_cli figure <1..10> | scan [YYYY-MM] |\n"
      "       export <dir> [--checkpoint-dir <ckpt>] [--resume]\n"
      "              [--gen-cache <on|off>]\n"
      "              [--journal-group-frames <n>] [--journal-group-ms <t>]\n"
      "              [--metrics-out <file>] [--trace-out <file>] |\n"
      "       fingerprints <file> | identify <hex-client-hello-record>\n",
      stderr);
  return 2;
}

int cmd_figure(int n) {
  tls::study::LongitudinalStudy study(options_from_env());
  tls::analysis::MonthlyChart chart;
  switch (n) {
    case 1: chart = study.figure1_versions(); break;
    case 2: chart = study.figure2_negotiated_classes(); break;
    case 3: chart = study.figure3_advertised_classes(); break;
    case 4: chart = study.figure4_fingerprint_support(); break;
    case 5: chart = study.figure5_relative_positions(); break;
    case 6: chart = study.figure6_rc4_advertised(); break;
    case 7: chart = study.figure7_weak_advertised(); break;
    case 8: chart = study.figure8_key_exchange(); break;
    case 9: chart = study.figure9_aead_negotiated(); break;
    case 10: chart = study.figure10_aead_advertised(); break;
    default: return usage();
  }
  std::fputs(tls::analysis::render_chart(chart).c_str(), stdout);
  return 0;
}

int cmd_scan(const char* month_arg) {
  const auto pop = tls::servers::ServerPopulation::standard();
  const tls::scan::ActiveScanner scanner(pop);
  const auto m = month_arg != nullptr
                     ? tls::core::Month::parse(month_arg)
                     : tls::core::censys_window().end_month;
  const auto s = scanner.scan(m);
  std::printf("scan %s (IPv4 host-weighted)\n", m.to_string().c_str());
  std::printf("  SSL3 support        %6.2f%%\n", 100 * s.ssl3_support);
  std::printf("  export support      %6.2f%%\n", 100 * s.export_support);
  std::printf("  chooses RC4         %6.2f%%\n", 100 * s.chooses_rc4);
  std::printf("  chooses CBC         %6.2f%%\n", 100 * s.chooses_cbc);
  std::printf("  chooses AEAD        %6.2f%%\n", 100 * s.chooses_aead);
  std::printf("  chooses 3DES        %6.2f%%\n", 100 * s.chooses_3des);
  std::printf("  heartbeat support   %6.2f%%\n", 100 * s.heartbeat_support);
  std::printf("  heartbleed vuln.    %6.2f%%\n",
              100 * s.heartbleed_vulnerable);
  std::printf("  TLS 1.3 support     %6.2f%%\n", 100 * s.tls13_support);
  return 0;
}

/// Sibling path for the Prometheus exposition: swaps a trailing ".json"
/// for ".prom", else appends ".prom".
std::string prometheus_path(const std::string& metrics_path) {
  const std::string suffix = ".json";
  if (metrics_path.size() > suffix.size() &&
      metrics_path.compare(metrics_path.size() - suffix.size(), suffix.size(),
                           suffix) == 0) {
    return metrics_path.substr(0, metrics_path.size() - suffix.size()) +
           ".prom";
  }
  return metrics_path + ".prom";
}

int cmd_export(const char* dir, const char* checkpoint_dir, bool resume,
               const char* gen_cache,
               long journal_group_frames, long journal_group_ms,
               const char* metrics_out, const char* trace_out) {
  auto opts = options_from_env();
  if (checkpoint_dir != nullptr) {
    opts.checkpoint_dir = checkpoint_dir;
    opts.resume = resume;
  }
  if (gen_cache != nullptr) {
    if (std::strcmp(gen_cache, "on") == 0) {
      opts.gen_cache = true;
    } else if (std::strcmp(gen_cache, "off") == 0) {
      opts.gen_cache = false;
    } else {
      std::fprintf(stderr, "export: unknown --gen-cache '%s'\n", gen_cache);
      return 2;
    }
  }
  if (journal_group_frames > 0) {
    opts.journal_group_frames =
        static_cast<std::size_t>(journal_group_frames);
  }
  if (journal_group_ms >= 0) {
    opts.journal_group_ms = static_cast<std::uint64_t>(journal_group_ms);
  }
  opts.telemetry = metrics_out != nullptr || trace_out != nullptr;
  tls::study::LongitudinalStudy study(opts);
  // Mask + watcher must exist before export spawns the worker pool.
  SignalDrain drain(study);
  for (const auto& path : study.export_figures(dir)) {
    std::printf("wrote %s\n", path.c_str());
  }
  if (metrics_out != nullptr) {
    std::ofstream(metrics_out) << tls::telemetry::to_metrics_json(
        study.metrics());
    std::printf("wrote %s\n", metrics_out);
    const auto prom = prometheus_path(metrics_out);
    std::ofstream(prom) << tls::telemetry::to_prometheus(study.metrics());
    std::printf("wrote %s\n", prom.c_str());
    std::fputs(tls::telemetry::render_run_report(study.metrics()).c_str(),
               stdout);
  }
  if (trace_out != nullptr) {
    std::ofstream(trace_out) << study.trace().to_json();
    std::printf("wrote %s\n", trace_out);
  }
  if (checkpoint_dir != nullptr) {
    const auto report = study.recovery();
    const auto table = tls::analysis::render_recovery_table(report);
    std::fputs(table.c_str(), stdout);
    const auto report_path =
        (std::filesystem::path(checkpoint_dir) / "RECOVERY.txt").string();
    std::ofstream(report_path) << table;
    std::printf("wrote %s\n", report_path.c_str());
  }
  return 0;
}

int cmd_fingerprints(const char* path) {
  const auto db = tls::study::LongitudinalStudy::build_database(
      tls::clients::standard_catalog());
  tls::fp::save_database_file(path, db);
  std::printf("wrote %zu fingerprints to %s\n", db.size(), path);
  return 0;
}

int cmd_identify(const char* hex) {
  std::vector<std::uint8_t> bytes;
  const std::size_t len = std::strlen(hex);
  if (len % 2 != 0) {
    std::fputs("identify: odd-length hex string\n", stderr);
    return 2;
  }
  for (std::size_t i = 0; i < len; i += 2) {
    char buf[3] = {hex[i], hex[i + 1], 0};
    char* end = nullptr;
    const auto v = std::strtoul(buf, &end, 16);
    if (end != buf + 2) {
      std::fputs("identify: invalid hex\n", stderr);
      return 2;
    }
    bytes.push_back(static_cast<std::uint8_t>(v));
  }
  try {
    const auto hello = tls::wire::ClientHello::parse_record(bytes);
    const auto fp = tls::fp::extract_fingerprint(hello);
    std::printf("fingerprint: %s\n", fp.hash().c_str());
    std::printf("canonical:   %s\n", fp.canonical().c_str());
    std::printf("ja3:         %s\n", tls::fp::ja3_hash(hello).c_str());
    const auto db = tls::study::LongitudinalStudy::build_database(
        tls::clients::standard_catalog());
    if (const auto* label = db.lookup(fp.hash())) {
      std::printf("identified:  %s (%s..%s)\n", label->software.c_str(),
                  label->version_min.c_str(), label->version_max.c_str());
    } else {
      std::printf("identified:  (unknown client)\n");
    }
  } catch (const tls::wire::ParseError& e) {
    std::fprintf(stderr, "identify: not a ClientHello record: %s\n",
                 e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "figure" && argc == 3) {
    long n = 0;
    if (!parse_long(argv[2], 1, 10, &n)) return usage();
    return cmd_figure(static_cast<int>(n));
  }
  if (cmd == "scan") return cmd_scan(argc >= 3 ? argv[2] : nullptr);
  if (cmd == "export" && argc >= 3) {
    const char* checkpoint_dir = nullptr;
    const char* metrics_out = nullptr;
    const char* trace_out = nullptr;
    const char* gen_cache = nullptr;
    long journal_group_frames = 0;  // 0 = keep the StudyOptions default
    long journal_group_ms = -1;     // -1 = keep the StudyOptions default
    bool resume = false;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--checkpoint-dir") == 0 && i + 1 < argc) {
        checkpoint_dir = argv[++i];
      } else if (std::strcmp(argv[i], "--resume") == 0) {
        resume = true;
      } else if (std::strcmp(argv[i], "--gen-cache") == 0 && i + 1 < argc) {
        gen_cache = argv[++i];
      } else if (std::strcmp(argv[i], "--journal-group-frames") == 0 &&
                 i + 1 < argc) {
        // A zero-frame group can never commit; reject it with the garbage.
        if (!parse_long(argv[++i], 1, LONG_MAX, &journal_group_frames)) {
          return usage();
        }
      } else if (std::strcmp(argv[i], "--journal-group-ms") == 0 &&
                 i + 1 < argc) {
        if (!parse_long(argv[++i], 0, LONG_MAX, &journal_group_ms)) {
          return usage();
        }
      } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
        metrics_out = argv[++i];
      } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
        trace_out = argv[++i];
      } else {
        return usage();
      }
    }
    return cmd_export(argv[2], checkpoint_dir, resume, gen_cache,
                      journal_group_frames, journal_group_ms, metrics_out,
                      trace_out);
  }
  if (cmd == "fingerprints" && argc == 3) return cmd_fingerprints(argv[2]);
  if (cmd == "identify" && argc == 3) return cmd_identify(argv[2]);
  return usage();
}
