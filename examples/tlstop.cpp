// tlstop — a `top`-style live text dashboard for notary_daemon.
//
//   tlstop --port N [--host ADDR] [--interval-ms N] [--once]
//
// Polls the daemon's control-plane queries (kQueryStats, kQueryMetrics,
// kQueryTrace) on an interval and renders a single refreshing screen:
// the outcome ledger with ingest/shed rates derived between polls, the
// per-shard queue-depth gauges from the metrics exposition, each daemon
// thread's CPU time and busy share (delta CPU over delta wall time between
// polls, so from the second poll on), captures per event-loop iteration
// and per worker batch, and the stage-latency waterfall
// (percentile lines + slowest exemplars). --once prints one snapshot
// without the ANSI screen clearing — the mode CI and scripts use.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_parse.hpp"
#include "daemon/protocol.hpp"
#include "daemon/sensor_client.hpp"
#include "telemetry/stopwatch.hpp"

namespace {

using tls::daemon::FrameType;

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t interval_ms = 1000;
  bool once = false;
};

/// Pulls `name{...}` gauge lines out of the Prometheus exposition.
std::vector<std::string> metric_lines(const std::string& exposition,
                                      const std::string& name) {
  std::vector<std::string> out;
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name, 0) != 0) continue;
    // Exact family only: "queue_depth" must not swallow "queue_depth_peak".
    const char next = line.size() > name.size() ? line[name.size()] : ' ';
    if (next == '{' || next == ' ') out.push_back(line);
  }
  return out;
}

/// The values of one counter family (each a whole number), keyed by
/// label set ("" for an unlabeled line).
std::map<std::string, std::uint64_t> counter_values(
    const std::string& exposition, const std::string& name) {
  std::map<std::string, std::uint64_t> values;
  for (const auto& line : metric_lines(exposition, name)) {
    const auto open = line.find('{');
    const auto close = line.find('}');
    const auto space = line.rfind(' ');
    if (space == std::string::npos ||
        (open != std::string::npos &&
         (close == std::string::npos || close < open))) {
      continue;
    }
    const std::string labels =
        open == std::string::npos ? "" : line.substr(open + 1, close - open - 1);
    values[labels] = std::strtoull(line.c_str() + space + 1, nullptr, 10);
  }
  return values;
}

/// The sum of a counter family over its label sets.
std::uint64_t counter_sum(const std::string& exposition,
                          const std::string& name) {
  std::uint64_t sum = 0;
  for (const auto& [labels, value] : counter_values(exposition, name)) {
    sum += value;
  }
  return sum;
}

/// `num / den` with two decimals, or "-" when nothing was counted.
std::string ratio(std::uint64_t num, std::uint64_t den) {
  if (den == 0) return "-";
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(2);
  out << static_cast<double>(num) / static_cast<double>(den);
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "tlstop: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto number = [&](long min, long max) {
      return tls::cli::parse_flag("tlstop", arg.c_str(), need(arg.c_str()),
                                  min, max);
    };
    if (arg == "--port") {
      opt.port = static_cast<std::uint16_t>(number(1, 65535));
    } else if (arg == "--host") {
      opt.host = need("--host");
    } else if (arg == "--interval-ms") {
      opt.interval_ms = static_cast<std::uint64_t>(number(1, 3'600'000));
    } else if (arg == "--once") {
      opt.once = true;
    } else {
      std::cerr << "tlstop: unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (opt.port == 0) {
    std::cerr << "tlstop: --port is required\n";
    return 2;
  }

  // One connection reused across polls. A query that fails on it is tried
  // once more on a fresh connection, so a restarted daemon is picked up.
  tls::daemon::SensorClient client;
  const auto query = [&](FrameType request) -> std::optional<std::string> {
    if (client.connected()) {
      if (auto body = client.query(request)) return body;
    }
    if (!client.connect(opt.host, opt.port)) return std::nullopt;
    return client.query(request);
  };
  std::map<std::string, std::uint64_t> prev;
  std::map<std::string, std::uint64_t> prev_cpu;
  std::uint64_t prev_us = 0;
  for (;;) {
    std::optional<std::string> stats_body, metrics_body, trace_body;
    if (!(stats_body = query(FrameType::kQueryStats)) ||
        !(metrics_body = query(FrameType::kQueryMetrics)) ||
        !(trace_body = query(FrameType::kQueryTrace))) {
      std::cerr << "tlstop: daemon at " << opt.host << ":" << opt.port
                << " not answering\n";
      return opt.once ? 1 : 0;  // live mode: daemon drained, clean exit
    }
    const std::uint64_t sample_us = tls::telemetry::now_us();
    const auto stats = tls::daemon::decode_stats(*stats_body);
    const auto stat = [&](const char* key) -> std::uint64_t {
      const auto it = stats.find(key);
      return it == stats.end() ? 0 : it->second;
    };
    const auto rate = [&](const char* key) -> double {
      if (prev_us == 0) return 0.0;
      const auto it = prev.find(key);
      if (it == prev.end()) return 0.0;
      const double ds = static_cast<double>(sample_us - prev_us) / 1e6;
      if (ds <= 0.0) return 0.0;
      return static_cast<double>(stat(key) - it->second) / ds;
    };

    std::ostringstream screen;
    screen << "tlstop " << opt.host << ":" << opt.port
           << "  (interval " << opt.interval_ms << " ms)\n\n"
           << "ledger   offered=" << stat("offered")
           << " ingested=" << stat("ingested") << " shed=" << stat("shed")
           << " malformed=" << stat("malformed")
           << " frame_errors=" << stat("frame_errors") << "\n"
           << "rates    ingest/s=" << static_cast<std::uint64_t>(
                  rate("ingested"))
           << " shed/s=" << static_cast<std::uint64_t>(rate("shed"))
           << " offered/s=" << static_cast<std::uint64_t>(rate("offered"))
           << "\n"
           << "latency  p50_us=" << stat("ingest_p50_us")
           << " p99_us=" << stat("ingest_p99_us")
           << " p999_us=" << stat("ingest_p999_us") << "\n\n";
    screen << "gauges\n";
    for (const auto& name :
         {"tls_repro_daemon_queue_depth", "tls_repro_daemon_queue_depth_peak",
          "tls_repro_daemon_credits_outstanding",
          "tls_repro_daemon_shed_rate_per_s"}) {
      for (const auto& line : metric_lines(*metrics_body, name)) {
        screen << "  " << line << "\n";
      }
    }
    // Since the daemon started: how many captures each event-loop pass
    // read and each worker batch observed.
    screen << "\nbatching captures/loop_iteration="
           << ratio(stat("offered"),
                    counter_sum(*metrics_body,
                                "tls_repro_daemon_loop_iterations_total"))
           << " captures/worker_batch="
           << ratio(stat("ingested"),
                    counter_sum(*metrics_body,
                                "tls_repro_daemon_shard_batches_total"))
           << "\n";
    const auto cpu = counter_values(*metrics_body,
                                    "tls_repro_daemon_thread_cpu_us_total");
    screen << "\nthreads  cpu_s and busy % (delta cpu / delta wall)\n";
    for (const auto& [labels, us] : cpu) {
      screen << "  {" << labels << "} cpu_s=" << static_cast<double>(us) / 1e6
             << " busy=";
      const auto it = prev_cpu.find(labels);
      if (prev_us == 0 || it == prev_cpu.end() || us < it->second ||
          sample_us <= prev_us) {
        screen << "-\n";
        continue;
      }
      const double busy = 100.0 * static_cast<double>(us - it->second) /
                          static_cast<double>(sample_us - prev_us);
      screen << static_cast<int>(busy + 0.5) << "%\n";
    }
    screen << "\n" << *trace_body;

    if (opt.once) {
      std::cout << screen.str();
      return 0;
    }
    // ANSI home+clear keeps the screen stable without a curses dependency.
    std::cout << "\x1b[H\x1b[2J" << screen.str() << std::flush;
    prev = stats;
    prev_cpu = cpu;
    prev_us = sample_us;
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.interval_ms));
  }
}
