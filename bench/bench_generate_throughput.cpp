// Generate-path throughput: runs the TrafficGenerator over the study
// window with the GenCache off and on, reports connections/sec + template
// hit rate, and fails if the two event streams differ in a single byte.
// The timing lanes use a minimal counting sink (so the number measures
// generation, not observation); a second untimed pass over identical
// generator streams folds every event — serialized hello record, full
// negotiation result, flags — into per-month digests and replays both
// streams through a PassiveMonitor, gating on
//   (1) event-stream digest equality off vs on,
//   (2) monitor export digest equality off vs on, and
//   (3) every GenCache-shipped `client_record` being byte-identical to a
//       from-scratch serialize_record() of the same hello.
//
// Usage: bench_generate_throughput [--gen-cache <on|off>]
//   The flag selects which lane's digests TLS_BENCH_DIGEST_OUT captures
//   (default: the cache-on lane), so CI can `cmp` the files from an
//   on-run and an off-run across processes. Both lanes always execute —
//   the in-process gates above hold for every invocation.
//
// Environment knobs:
//   TLS_STUDY_CPM         connections per month (default 6000)
//   TLS_STUDY_SEED        generator seed (default 42)
//   TLS_STUDY_CORE        "1" -> core-only catalog
//   TLS_BENCH_REPEATS     timing repeats per lane, best kept (default 3)
//   TLS_BENCH_JSON        output path (default BENCH_generate.json)
//   TLS_BENCH_DIGEST_OUT  write the selected lane's digests to this path
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "tlscore/fnv.hpp"

namespace {

using tls::core::Month;
using tls::population::ConnectionEvent;
using tls::population::TrafficGenerator;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::strtoull(v, nullptr, 10);
}

void fold(std::uint64_t& acc, std::uint64_t v) {
  acc = (acc ^ v) * tls::core::kFnvPrime;
}

void fold_bytes(std::uint64_t& acc, const std::vector<std::uint8_t>& bytes) {
  fold(acc, tls::core::fnv1a64(bytes));
  fold(acc, bytes.size());
}

// Exhaustive text digest of a monitor's exported state.
std::string monitor_digest(const tls::notary::PassiveMonitor& mon) {
  std::ostringstream out;
  for (const auto& [m, s] : mon.months()) {
    out << m.to_string() << ' ' << s.total << ' ' << s.successful << ' '
        << s.failures << ' ' << s.quarantined << ' ' << s.fallbacks << ' '
        << s.spec_violations << ' ' << s.resumed << ' ' << s.adv_aead << ' '
        << s.adv_rc4 << ' ' << s.adv_fs << ' ' << s.heartbeat_negotiated
        << ' ' << s.negotiated_tls13 << '\n';
    for (const auto& [v, n] : s.negotiated_version()) {
      out << "v " << v << ' ' << n << '\n';
    }
    for (const auto& [c, n] : s.negotiated_class()) {
      out << "c " << static_cast<int>(c) << ' ' << n << '\n';
    }
    for (const auto& [g, n] : s.negotiated_group()) {
      out << "g " << g << ' ' << n << '\n';
    }
    for (const auto& [hash, flags] : std::map<std::string, std::uint8_t>(
             s.fingerprints.begin(), s.fingerprints.end())) {
      out << "f " << hash << ' ' << static_cast<int>(flags) << '\n';
    }
  }
  return out.str();
}

struct LaneResult {
  double cps = 0;
  std::uint64_t events = 0;
  std::string stream_digest;   // per-month event-stream digest text
  std::string export_digest;   // monitor export digest
  std::uint64_t wire_mismatches = 0;
  tls::population::GenCache::Stats stats;
};

// Timed lanes: identical generator streams, counting sink only.
double timed_lane(const tls::population::MarketModel& market,
                  const tls::servers::ServerPopulation& servers,
                  const tls::study::StudyOptions& opts, bool cache_on,
                  std::size_t repeats, std::uint64_t* events_out) {
  double best = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    TrafficGenerator gen(market, servers, opts.seed);
    gen.set_gen_cache(cache_on);
    std::uint64_t events = 0;
    std::uint64_t sink = 0;  // defeats dead-code elimination
    const double wall = bench::timed_seconds([&] {
      for (Month m = opts.window.begin_month; m <= opts.window.end_month;
           ++m) {
        gen.generate_month_batched(
            m, opts.connections_per_month, 256,
            [&](std::span<const ConnectionEvent> span) {
              events += span.size();
              for (const auto& ev : span) {
                sink += ev.result.negotiated_cipher + ev.day.day();
              }
            });
      }
    });
    if (sink == 0xdeadbeef) std::printf("~");  // keep `sink` observable
    *events_out = events;
    if (wall > 0) best = std::max(best, static_cast<double>(events) / wall);
  }
  return best;
}

// Untimed digest pass over the same deterministic stream.
LaneResult digest_lane(const tls::population::MarketModel& market,
                       const tls::servers::ServerPopulation& servers,
                       const tls::fp::FingerprintDatabase& database,
                       const tls::study::StudyOptions& opts, bool cache_on) {
  LaneResult lane;
  TrafficGenerator gen(market, servers, opts.seed);
  gen.set_gen_cache(cache_on);
  tls::notary::PassiveMonitor mon(&database);
  std::ostringstream digest;
  std::vector<std::uint8_t> scratch;
  for (Month m = opts.window.begin_month; m <= opts.window.end_month; ++m) {
    std::uint64_t acc = 14695981039346656037ULL;
    gen.generate_month_batched(
        m, opts.connections_per_month, 256,
        [&](std::span<const ConnectionEvent> span) {
          for (const auto& ev : span) {
            ++lane.events;
            mon.observe(ev);
            fold(acc, static_cast<std::uint64_t>(ev.day.day()));
            fold(acc, ev.sslv2 ? 1 : 0);
            if (ev.sslv2) continue;
            ev.hello.serialize_record_into(scratch);
            if (!ev.client_record.empty() && ev.client_record != scratch) {
              ++lane.wire_mismatches;
            }
            fold_bytes(acc, scratch);
            const auto& r = ev.result;
            fold(acc, (r.success ? 1u : 0u) |
                          (static_cast<std::uint64_t>(r.failure) << 1) |
                          (r.resumed ? 0x100u : 0u) |
                          (r.spec_violation ? 0x200u : 0u) |
                          (r.heartbeat_negotiated ? 0x400u : 0u) |
                          (ev.used_fallback ? 0x800u : 0u));
            fold(acc, (static_cast<std::uint64_t>(r.negotiated_version)
                       << 32) |
                          (static_cast<std::uint64_t>(r.negotiated_cipher)
                           << 16) |
                          r.negotiated_group);
            if (r.server_hello.has_value()) {
              r.server_hello->serialize_record_into(scratch);
              fold_bytes(acc, scratch);
            }
          }
        });
    char line[64];
    std::snprintf(line, sizeof(line), "%s %016llx\n",
                  m.to_string().c_str(),
                  static_cast<unsigned long long>(acc));
    digest << line;
  }
  lane.stream_digest = digest.str();
  lane.export_digest = monitor_digest(mon);
  lane.stats = gen.gen_cache_stats();
  return lane;
}

}  // namespace

int main(int argc, char** argv) {
  bool digest_lane_on = true;  // which lane TLS_BENCH_DIGEST_OUT captures
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gen-cache") == 0 && i + 1 < argc) {
      const char* v = argv[++i];
      if (std::strcmp(v, "on") == 0) {
        digest_lane_on = true;
      } else if (std::strcmp(v, "off") == 0) {
        digest_lane_on = false;
      } else {
        std::fprintf(stderr, "unknown --gen-cache '%s' (want on|off)\n", v);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_generate_throughput [--gen-cache <on|off>]\n");
      return 2;
    }
  }

  const auto opts = bench::default_options();
  const std::size_t repeats =
      std::max<std::size_t>(1, env_size("TLS_BENCH_REPEATS", 3));
  const char* json_path_env = std::getenv("TLS_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr ? json_path_env : "BENCH_generate.json";

  const auto catalog = opts.full_catalog ? tls::clients::Catalog::standard()
                                         : tls::clients::Catalog::core_only();
  const auto database = tls::study::LongitudinalStudy::build_database(catalog);
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);
  const std::size_t months = static_cast<std::size_t>(
      opts.window.end_month.index() - opts.window.begin_month.index() + 1);

  std::printf("== bench_generate_throughput ==\n");
  std::printf("%zu months x %zu conn/month, seed %llu\n\n", months,
              opts.connections_per_month,
              static_cast<unsigned long long>(opts.seed));

  std::uint64_t off_events = 0, on_events = 0;
  const double off_cps =
      timed_lane(market, servers, opts, false, repeats, &off_events);
  const double on_cps =
      timed_lane(market, servers, opts, true, repeats, &on_events);

  const LaneResult off = digest_lane(market, servers, database, opts, false);
  const LaneResult on = digest_lane(market, servers, database, opts, true);

  const bool stream_identical = off.stream_digest == on.stream_digest;
  const bool export_identical = off.export_digest == on.export_digest;
  const bool identical =
      stream_identical && export_identical && on.wire_mismatches == 0;
  const double speedup = off_cps > 0 ? on_cps / off_cps : 0.0;
  const std::uint64_t fills = on.stats.template_hits + on.stats.bypasses;
  const double hit_rate =
      fills > 0 ? static_cast<double>(on.stats.template_hits) /
                      static_cast<double>(fills)
                : 0.0;
  const std::uint64_t plans = on.stats.plan_hits + on.stats.plan_misses;
  const double plan_hit_rate =
      plans > 0 ? static_cast<double>(on.stats.plan_hits) /
                      static_cast<double>(plans)
                : 0.0;

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"config", "conn/s", "hit rate", "stream"});
  char off_s[32], on_s[32], hit_s[32];
  std::snprintf(off_s, sizeof(off_s), "%.0f", off_cps);
  std::snprintf(on_s, sizeof(on_s), "%.0f", on_cps);
  std::snprintf(hit_s, sizeof(hit_s), "%.3f", hit_rate);
  rows.push_back({"gen-cache off", off_s, "-", "baseline"});
  rows.push_back({"gen-cache on", on_s, hit_s,
                  identical ? "bit-identical" : "MISMATCH"});
  std::fputs(tls::analysis::render_table(rows).c_str(), stdout);
  std::printf("\nspeedup: %.2fx (target >= 2x on the generate phase)\n",
              speedup);
  std::printf(
      "templates: %llu compiled (%llu wire bytes), plan memo %.3f hit "
      "rate (%llu plans)\n",
      static_cast<unsigned long long>(on.stats.template_misses),
      static_cast<unsigned long long>(on.stats.template_bytes),
      plan_hit_rate,
      static_cast<unsigned long long>(on.stats.plan_misses));

  // CI cross-process gate: an on-run and an off-run must write identical
  // digest files (the stream digest is computed from the serialized
  // structs, so it is lane-independent when the fast path is correct).
  if (const char* digest_path = std::getenv("TLS_BENCH_DIGEST_OUT")) {
    const LaneResult& pick = digest_lane_on ? on : off;
    std::ofstream out(digest_path);
    out << "== event stream ==\n"
        << pick.stream_digest << "== exports ==\n"
        << pick.export_digest;
    std::printf("wrote %s\n", digest_path);
  }

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"connections\": " << on.events << ",\n"
       << "  \"months\": " << months << ",\n"
       << "  \"cache_off_cps\": " << static_cast<std::uint64_t>(off_cps)
       << ",\n"
       << "  \"cache_on_cps\": " << static_cast<std::uint64_t>(on_cps)
       << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"template_hit_rate\": " << hit_rate << ",\n"
       << "  \"plan_hit_rate\": " << plan_hit_rate << ",\n"
       << "  \"templates_compiled\": " << on.stats.template_misses << ",\n"
       << "  \"template_bytes\": " << on.stats.template_bytes << ",\n"
       << "  \"bypass_events\": " << on.stats.bypasses << ",\n"
       << "  \"wire_mismatches\": " << on.wire_mismatches << ",\n"
       << "  \"identical\": " << (identical ? "true" : "false") << "\n"
       << "}\n";
  std::printf("wrote %s\n", json_path.c_str());

  if (!stream_identical) {
    std::fprintf(stderr, "FAIL: gen-cache event stream diverged\n");
    return 1;
  }
  if (!export_identical) {
    std::fprintf(stderr, "FAIL: gen-cache monitor exports diverged\n");
    return 1;
  }
  if (on.wire_mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu template records != from-scratch serialization\n",
                 static_cast<unsigned long long>(on.wire_mismatches));
    return 1;
  }
  return 0;
}
