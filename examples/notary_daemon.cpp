// notary_daemon — the live-ingestion service CLI (DESIGN.md §16).
//
//   notary_daemon [--port N] [--bind ADDR] [--shards N]
//                 [--queue-depth N] [--credit-window N]
//                 [--max-frame-bytes N] [--idle-timeout-ms N]
//                 [--observe-delay-us N] [--max-connections N]
//                 [--checkpoint-dir DIR] [--resume] [--checkpoint-every N]
//                 [--full-catalog] [--port-file FILE] [--metrics-out FILE]
//                 [--trace-out FILE] [--flight-autodump-ms N]
//                 [--crash-handler]
//
// --shards takes at most 4095 (tls::daemon::kMaxShards): the flight
// recorder keeps one ring per shard plus the event loop's, and a dump
// with more rings than its decoder reads would be no post-mortem at all.
//
// Observability (DESIGN.md §17): stage-latency attribution, the flight
// recorder and the gauge ticker always run; there is no switch to turn
// them off. --trace-out writes the slowest-exemplar waterfall as Chrome
// trace_event JSON at drain. --flight-autodump-ms keeps
// checkpoint-dir/FLIGHT.bin at most one interval stale so even kill -9
// leaves a post-mortem; --crash-handler additionally dumps the rings
// from SIGSEGV/SIGABRT/SIGBUS.
//
// Runs until SIGINT/SIGTERM, then drains gracefully: admission stops, the
// shard queues quiesce, and the final epoch (a checksummed SNAPSHOT.bin)
// and SNAPSHOT.txt are written under --checkpoint-dir before exit 0. Each
// epoch replaces SNAPSHOT.bin atomically and keeps its predecessor as
// SNAPSHOT.prev.bin; kill -9 at any point is recovered on the next
// --resume start from the newest of the two that decodes. A start without
// --resume deletes both.
//
// Signal pattern: signals are blocked in main before any thread spawns,
// then a dedicated watcher thread sigwait()s and calls request_stop() —
// no async-signal-safety gymnastics in handlers.
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "cli_parse.hpp"
#include "clients/catalog.hpp"
#include "core/study.hpp"
#include "daemon/daemon.hpp"
#include "telemetry/export.hpp"

int main(int argc, char** argv) {
  tls::daemon::DaemonConfig config;
  bool full_catalog = false;
  std::string port_file;
  std::string metrics_out;
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "notary_daemon: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto number = [&](long min, long max) {
      return tls::cli::parse_flag("notary_daemon", arg.c_str(),
                                  need(arg.c_str()), min, max);
    };
    if (arg == "--port") {
      config.port = static_cast<std::uint16_t>(number(0, 65535));
    } else if (arg == "--bind") {
      config.bind_address = need("--bind");
    } else if (arg == "--shards") {
      config.shards = number(0, static_cast<long>(tls::daemon::kMaxShards));
    } else if (arg == "--queue-depth") {
      config.shard_queue_depth = number(0, LONG_MAX);
    } else if (arg == "--credit-window") {
      config.credit_window = static_cast<std::uint32_t>(number(0, UINT32_MAX));
    } else if (arg == "--max-frame-bytes") {
      config.max_frame_bytes =
          static_cast<std::uint32_t>(number(0, UINT32_MAX));
    } else if (arg == "--idle-timeout-ms") {
      config.idle_timeout_ms = number(0, LONG_MAX);
    } else if (arg == "--observe-delay-us") {
      config.observe_delay_us_for_test = number(0, LONG_MAX);
    } else if (arg == "--max-connections") {
      config.max_connections = number(0, LONG_MAX);
    } else if (arg == "--checkpoint-dir") {
      config.checkpoint_dir = need("--checkpoint-dir");
    } else if (arg == "--resume") {
      config.resume = true;
    } else if (arg == "--checkpoint-every") {
      config.checkpoint_every = number(0, LONG_MAX);
    } else if (arg == "--full-catalog") {
      full_catalog = true;
    } else if (arg == "--port-file") {
      port_file = need("--port-file");
    } else if (arg == "--metrics-out") {
      metrics_out = need("--metrics-out");
    } else if (arg == "--trace-out") {
      trace_out = need("--trace-out");
    } else if (arg == "--flight-autodump-ms") {
      config.flight_autodump_ms = number(0, LONG_MAX);
    } else if (arg == "--crash-handler") {
      config.crash_handler = true;
    } else {
      std::cerr << "notary_daemon: unknown flag " << arg << "\n";
      return 2;
    }
  }

  // Block the termination signals BEFORE any thread exists so they are
  // delivered to nobody but the sigwait watcher below.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  const auto catalog = full_catalog ? tls::clients::Catalog::standard()
                                    : tls::clients::Catalog::core_only();
  const auto database =
      tls::study::LongitudinalStudy::build_database(catalog);
  config.database = &database;

  tls::daemon::NotaryDaemon daemon(std::move(config));
  if (!daemon.start()) {
    std::cerr << "notary_daemon: " << daemon.last_error() << "\n";
    return 1;
  }
  std::cout << "notary_daemon: listening on port " << daemon.port()
            << " (resumed_epoch=" << daemon.resumed_epoch() << ")"
            << std::endl;
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << daemon.port() << "\n";
  }

  std::thread watcher([&sigs, &daemon] {
    int sig = 0;
    sigwait(&sigs, &sig);
    std::cout << "notary_daemon: received " << strsignal(sig)
              << ", draining" << std::endl;
    daemon.request_stop();
  });

  daemon.join();
  // Unblock the watcher if the daemon stopped without a signal.
  pthread_kill(watcher.native_handle(), SIGTERM);
  watcher.join();

  std::cout << daemon.stats_text();
  if (!trace_out.empty()) {
    std::ofstream trace(trace_out);
    trace << daemon.trace_chrome();
  }
  if (!metrics_out.empty()) {
    const auto registry = daemon.merged_metrics();
    std::ofstream json(metrics_out);
    json << tls::telemetry::to_metrics_json(registry);
    std::string prom_path = metrics_out;
    const auto dot = prom_path.rfind(".json");
    if (dot != std::string::npos) prom_path.resize(dot);
    prom_path += ".prom";
    std::ofstream prom(prom_path);
    prom << tls::telemetry::to_prometheus(registry);
  }
  return 0;
}
