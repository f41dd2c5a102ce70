// loadgen — open-loop fault-mix load generator for notary_daemon.
//
//   loadgen --port N [--host ADDR] [--connections C] [--rate R]
//           [--duration-s S] [--seed N] [--skew Z] [--fault-milli F]
//           [--events-per-conn E] [--full-catalog] [--json FILE]
//           [--p99-bound-us N] [--expect-closure] [--min-ingested N]
//
// OPEN loop: each connection schedules capture send times from an
// exponential interarrival process at its share of the aggregate --rate
// and fires on schedule regardless of completions — the generator never
// slows down just because the daemon is busy, which is exactly how
// closed-loop benches hide queueing. When the credit window is exhausted
// at fire time the capture is dropped CLIENT-side and counted as a
// backpressure drop (a well-behaved sensor would buffer; the point here
// is to measure the daemon's shed behavior, not to emulate patience).
//
// A worker that falls behind its schedule (faults, reconnects, a slow
// daemon) fires late in a burst, and fires still due when --duration-s
// ends are counted as `behind`, never dropped silently: per connection,
// scheduled + behind is every fire its schedule put before the deadline.
//
// --skew Zipf-weights the per-connection rates (weight 1/(i+1)^Z) so a
// few heavy sensors dominate, exercising shard imbalance.
//
// --fault-milli F injects chaos at F permille of fire events, cycling
// through: torn frame (half a frame, then reconnect), garbage bytes,
// bit-flipped checksum, and a slow-loris half-frame stall. Faulted sends
// are chaos, not load: counted separately, never against the daemon's
// offered/ingested closure.
//
// Exit gates (for CI): --expect-closure asserts the daemon's
// offered == ingested + shed + malformed ledger; --p99-bound-us bounds
// the daemon-side p99 of each ingested capture's ingress->grant latency
// (the `total` stage: frame received to credit grant queued);
// --min-ingested guards against a silently dead pipeline.
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_parse.hpp"
#include "clients/catalog.hpp"
#include "core/study.hpp"
#include "daemon/capture.hpp"
#include "daemon/protocol.hpp"
#include "daemon/sensor_client.hpp"
#include "population/market.hpp"
#include "population/traffic.hpp"
#include "servers/population.hpp"
#include "telemetry/stopwatch.hpp"
#include "tlscore/rng.hpp"

namespace {

using tls::daemon::FrameType;
using tls::daemon::SensorClient;
using tls::telemetry::now_us;

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 8;
  double rate = 2000.0;  // aggregate captures/s
  double duration_s = 10.0;
  std::uint64_t seed = 42;
  double skew = 0.0;
  std::uint64_t fault_milli = 0;
  std::size_t events_per_conn = 512;
  bool full_catalog = false;
  std::string json_out;
  std::uint64_t p99_bound_us = 0;
  bool expect_closure = false;
  std::uint64_t min_ingested = 0;
};

struct WorkerStats {
  /// When the worker's schedule started (its first fire), in now_us().
  double first_fire_us = 0.0;
  std::uint64_t scheduled = 0;
  /// Fires due before the deadline that the worker never reached.
  std::uint64_t behind = 0;
  std::uint64_t sent = 0;
  std::uint64_t backpressure_drops = 0;
  std::uint64_t faulted = 0;
  std::uint64_t reconnects = 0;
};

/// The schedule's own random stream for connection `index`, apart from
/// the fault draws, so the schedule can be replayed on its own.
tls::core::Rng schedule_rng(const Options& opt, std::size_t index) {
  return tls::core::Rng((opt.seed * 0x9e3779b97f4a7c15ull + index) ^
                        0x5c4ed01e5c4ed01eull);
}

/// One exponential interarrival gap of the open-loop schedule, in us.
double next_gap_us(tls::core::Rng& schedule, double rate_per_s) {
  return -std::log(1.0 - schedule.uniform()) / rate_per_s * 1e6;
}

/// Fires a schedule puts in [first_fire_us, deadline_us): replayed from
/// the schedule's stream alone, so it checks the worker's books without
/// trusting them.
std::uint64_t fires_due(tls::core::Rng schedule, double rate_per_s,
                        double first_fire_us, std::uint64_t deadline_us) {
  std::uint64_t due = 0;
  for (double fire = first_fire_us;
       fire < static_cast<double>(deadline_us);
       fire += next_gap_us(schedule, rate_per_s)) {
    ++due;
  }
  return due;
}

/// One worker: fires pre-encoded capture frames at `rate_per_s` on an
/// exponential open-loop schedule until the deadline.
void run_worker(const Options& opt, std::size_t index,
                const std::vector<std::vector<std::uint8_t>>& frames,
                double rate_per_s, std::uint64_t deadline_us,
                WorkerStats& stats) {
  tls::core::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + index);
  tls::core::Rng schedule = schedule_rng(opt, index);
  double next_fire = static_cast<double>(now_us());
  stats.first_fire_us = next_fire;
  // Every fire still due at the deadline is one the worker fell behind on.
  const auto count_behind = [&] {
    for (; next_fire < static_cast<double>(deadline_us);
         next_fire += next_gap_us(schedule, rate_per_s)) {
      ++stats.behind;
    }
  };
  SensorClient client;
  // Wait briefly for the initial credit grant so the first fires have a
  // window to spend.
  if (!client.connect(opt.host, opt.port) || !client.poll(200)) {
    count_behind();
    return;
  }

  std::size_t cursor = index;  // desynchronize the event cycles
  std::uint64_t fault_cycle = 0;
  while (true) {
    const std::uint64_t now = now_us();
    if (now >= deadline_us) break;
    if (static_cast<double>(now) < next_fire) {
      const auto wait_us = static_cast<std::uint64_t>(
          next_fire - static_cast<double>(now));
      // Disconnected after a fault, this is a plain wait until the fire.
      if (!client.poll(static_cast<int>(wait_us / 1000) + 1)) {
        client.close_gracefully();
      }
      continue;
    }
    // Schedule the next arrival first — open loop: the schedule never
    // waits for the outcome of this fire.
    next_fire += next_gap_us(schedule, rate_per_s);
    ++stats.scheduled;

    if (!client.connected()) {
      if (!client.connect(opt.host, opt.port)) {
        ++stats.backpressure_drops;  // daemon unreachable = dropped fire
        continue;
      }
      ++stats.reconnects;
      client.poll(200);
    }

    const auto& frame = frames[cursor % frames.size()];
    ++cursor;

    const bool fault =
        opt.fault_milli > 0 &&
        rng.chance(static_cast<double>(opt.fault_milli) / 1000.0);
    if (fault) {
      ++stats.faulted;
      switch (fault_cycle++ % 4) {
        // Every fault ends the connection with a graceful close: a plain
        // close(2) over unread credit grants resets the connection, and
        // the reset discards captures the daemon has not read yet.
        case 0: {  // torn frame: half the bytes, then a disconnect
          const std::size_t half = frame.size() / 2;
          client.send({frame.data(), half});
          client.close_gracefully();
          break;
        }
        // The daemon poisons and closes a connection that sends either of
        // the next two, so the worker gives it up and reconnects at its
        // next fire instead of sending into a dead peer.
        case 1: {  // garbage: random bytes that cannot be a frame header
          std::uint8_t junk[32];
          for (auto& b : junk)
            b = static_cast<std::uint8_t>(rng.below(256));
          junk[0] = 0xFF;  // guarantee a magic mismatch
          client.send(junk);
          client.close_gracefully();
          break;
        }
        case 2: {  // bit-flipped checksum
          auto corrupt = frame;
          corrupt[corrupt.size() - 1] ^= 0x01;
          client.send(corrupt);
          client.close_gracefully();
          break;
        }
        case 3: {  // slow-loris: half a frame, stall, never finish
          const std::size_t half = frame.size() / 2;
          client.send({frame.data(), half});
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          client.close_gracefully();  // give up mid-frame: a torn buffer
          break;
        }
      }
      continue;
    }

    if (!client.poll(0)) {  // dead peer: nothing sent here would arrive
      client.close_gracefully();
      ++stats.backpressure_drops;
      continue;
    }
    if (!client.credits().try_send()) {
      ++stats.backpressure_drops;
      continue;
    }
    if (!client.send(frame)) {
      client.close_gracefully();
      ++stats.backpressure_drops;
      continue;
    }
    ++stats.sent;
  }
  count_behind();
  client.close_gracefully();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "loadgen: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto number = [&](long min, long max) {
      return tls::cli::parse_flag("loadgen", arg.c_str(), need(arg.c_str()),
                                  min, max);
    };
    if (arg == "--port") {
      opt.port = static_cast<std::uint16_t>(number(1, 65535));
    } else if (arg == "--host") {
      opt.host = need("--host");
    } else if (arg == "--connections") {
      opt.connections = static_cast<std::size_t>(number(1, 4096));
    } else if (arg == "--rate") {
      opt.rate = std::strtod(need("--rate"), nullptr);
    } else if (arg == "--duration-s") {
      opt.duration_s = std::strtod(need("--duration-s"), nullptr);
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(number(0, LONG_MAX));
    } else if (arg == "--skew") {
      opt.skew = std::strtod(need("--skew"), nullptr);
    } else if (arg == "--fault-milli") {
      opt.fault_milli = static_cast<std::uint64_t>(number(0, 1000));
    } else if (arg == "--events-per-conn") {
      opt.events_per_conn = static_cast<std::size_t>(number(1, LONG_MAX));
    } else if (arg == "--full-catalog") {
      opt.full_catalog = true;
    } else if (arg == "--json") {
      opt.json_out = need("--json");
    } else if (arg == "--p99-bound-us") {
      opt.p99_bound_us = static_cast<std::uint64_t>(number(0, LONG_MAX));
    } else if (arg == "--expect-closure") {
      opt.expect_closure = true;
    } else if (arg == "--min-ingested") {
      opt.min_ingested = static_cast<std::uint64_t>(number(0, LONG_MAX));
    } else {
      std::cerr << "loadgen: unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (opt.port == 0) {
    std::cerr << "loadgen: --port is required\n";
    return 2;
  }
  if (opt.rate <= 0.0) opt.rate = 1.0;

  // Build the synthetic traffic plane once and pre-encode every worker's
  // capture frames: the hot loop does no generation, only scheduling.
  const auto catalog = opt.full_catalog ? tls::clients::Catalog::standard()
                                        : tls::clients::Catalog::core_only();
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);

  std::vector<std::vector<std::vector<std::uint8_t>>> frames_per_conn(
      opt.connections);
  for (std::size_t i = 0; i < opt.connections; ++i) {
    tls::population::TrafficGenerator gen(market, servers, opt.seed + i);
    const tls::core::Month month(2015 + static_cast<int>(i / 12) % 3,
                                 1 + static_cast<int>(i % 12));
    auto& frames = frames_per_conn[i];
    frames.reserve(opt.events_per_conn);
    gen.generate_month(month, opt.events_per_conn,
                       [&](const tls::population::ConnectionEvent& event) {
                         const auto capture =
                             tls::daemon::capture_from_event(event);
                         const auto payload =
                             tls::daemon::encode_capture(capture);
                         frames.push_back(tls::daemon::encode_frame(
                             FrameType::kCapture, payload));
                       });
  }

  // Zipf-style per-connection rate split.
  std::vector<double> weights(opt.connections);
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < opt.connections; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), opt.skew);
    weight_sum += weights[i];
  }

  const std::uint64_t start_us = now_us();
  const auto deadline_us =
      start_us + static_cast<std::uint64_t>(opt.duration_s * 1e6);
  std::vector<WorkerStats> stats(opt.connections);
  std::vector<std::thread> workers;
  workers.reserve(opt.connections);
  for (std::size_t i = 0; i < opt.connections; ++i) {
    const double rate = opt.rate * weights[i] / weight_sum;
    workers.emplace_back([&, i, rate] {
      run_worker(opt, i, frames_per_conn[i], rate, deadline_us, stats[i]);
    });
  }
  for (auto& worker : workers) worker.join();
  const double elapsed_s =
      static_cast<double>(now_us() - start_us) / 1e6;

  WorkerStats total;
  std::uint64_t ledger_breaks = 0;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const auto& s = stats[i];
    const double rate = opt.rate * weights[i] / weight_sum;
    if (s.scheduled + s.behind !=
        fires_due(schedule_rng(opt, i), rate, s.first_fire_us, deadline_us)) {
      ++ledger_breaks;
    }
    total.scheduled += s.scheduled;
    total.behind += s.behind;
    total.sent += s.sent;
    total.backpressure_drops += s.backpressure_drops;
    total.faulted += s.faulted;
    total.reconnects += s.reconnects;
  }

  // The ledger closes only once the shard queues quiesce: captures the
  // daemon admitted in the final instants are offered but neither ingested
  // nor shed until a worker drains them. Poll until the books balance (or
  // a generous timeout — queues drain in well under a second once sends
  // stop) so the closure gate measures accounting, not scheduling.
  // Each control-plane query takes a fresh connection.
  const auto query = [&](FrameType request) -> std::optional<std::string> {
    SensorClient control;
    if (!control.connect(opt.host, opt.port)) return std::nullopt;
    return control.query(request);
  };
  std::map<std::string, std::uint64_t> daemon_stats;
  const std::uint64_t quiesce_deadline_us = now_us() + 15'000'000;
  for (;;) {
    const auto stats_body = query(FrameType::kQueryStats);
    if (!stats_body) {
      std::cerr << "loadgen: stats query failed\n";
      return 1;
    }
    daemon_stats = tls::daemon::decode_stats(*stats_body);
    const std::uint64_t offered = daemon_stats["offered"];
    const std::uint64_t settled = daemon_stats["ingested"] +
                                  daemon_stats["shed"] +
                                  daemon_stats["malformed"];
    if (settled >= offered || now_us() >= quiesce_deadline_us) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const auto stat = [&](const char* key) -> std::uint64_t {
    const auto it = daemon_stats.find(key);
    return it == daemon_stats.end() ? 0 : it->second;
  };

  // Pull the stage-latency waterfall while the daemon is still up: where
  // each frame's time went (decode/enqueue/queue/observe/complete/grant),
  // plus the slowest exemplars of the last windows.
  if (const auto waterfall = query(FrameType::kQueryTrace)) {
    std::istringstream lines(*waterfall);
    std::string line;
    while (std::getline(lines, line)) {
      std::cout << "waterfall: " << line << "\n";
    }
  }

  const double achieved = static_cast<double>(total.sent) / elapsed_s;
  std::cout << "loadgen: scheduled=" << total.scheduled
            << " behind=" << total.behind << " sent=" << total.sent
            << " backpressure_drops=" << total.backpressure_drops
            << " faulted=" << total.faulted
            << " reconnects=" << total.reconnects << "\n"
            << "loadgen: achieved_rate=" << achieved << " captures/s over "
            << elapsed_s << " s\n"
            << "daemon:  offered=" << stat("offered")
            << " ingested=" << stat("ingested") << " shed=" << stat("shed")
            << " malformed=" << stat("malformed")
            << " frame_errors=" << stat("frame_errors") << "\n"
            << "daemon:  ingest_p50_us=" << stat("ingest_p50_us")
            << " ingest_p99_us=" << stat("ingest_p99_us")
            << " ingest_p999_us=" << stat("ingest_p999_us") << "\n";

  if (!opt.json_out.empty()) {
    std::ofstream json(opt.json_out);
    json << "{\n"
         << "  \"scheduled\": " << total.scheduled << ",\n"
         << "  \"behind\": " << total.behind << ",\n"
         << "  \"sent\": " << total.sent << ",\n"
         << "  \"backpressure_drops\": " << total.backpressure_drops << ",\n"
         << "  \"faulted\": " << total.faulted << ",\n"
         << "  \"reconnects\": " << total.reconnects << ",\n"
         << "  \"elapsed_s\": " << elapsed_s << ",\n"
         << "  \"achieved_rate\": " << achieved << ",\n"
         << "  \"daemon\": {\n";
    bool first = true;
    for (const auto& [key, value] : daemon_stats) {
      if (!first) json << ",\n";
      first = false;
      json << "    \"" << key << "\": " << value;
    }
    json << "\n  }\n}\n";
  }

  // The fire ledger must close on the client side too: every fire due
  // was scheduled or fell behind, and every scheduled fire has an outcome.
  if (ledger_breaks != 0) {
    std::cerr << "loadgen: schedule ledger violation on " << ledger_breaks
              << " connection(s): scheduled+behind != fires due\n";
    return 1;
  }
  if (total.scheduled !=
      total.sent + total.backpressure_drops + total.faulted) {
    std::cerr << "loadgen: client ledger violation: scheduled="
              << total.scheduled << " != sent+drops+faulted\n";
    return 1;
  }
  int rc = 0;
  if (opt.expect_closure) {
    const auto offered = stat("offered");
    const auto closure =
        stat("ingested") + stat("shed") + stat("malformed");
    if (offered != closure) {
      std::cerr << "loadgen: closure violation: offered=" << offered
                << " ingested+shed+malformed=" << closure << "\n";
      rc = 1;
    }
  }
  if (opt.p99_bound_us > 0 && stat("ingested") > 0 &&
      stat("ingest_p99_us") > opt.p99_bound_us) {
    std::cerr << "loadgen: p99 ingress->grant latency "
              << stat("ingest_p99_us")
              << "us exceeds bound " << opt.p99_bound_us << "us\n";
    rc = 1;
  }
  if (opt.min_ingested > 0 && stat("ingested") < opt.min_ingested) {
    std::cerr << "loadgen: ingested " << stat("ingested") << " below floor "
              << opt.min_ingested << "\n";
    rc = 1;
  }
  return rc;
}
