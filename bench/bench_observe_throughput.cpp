// Observe-path throughput on realistic input: a pool of pre-serialized
// captures is cycled through PassiveMonitor::observe_wire, and every
// observation first gets a fresh client random and session id (and a fresh
// server random) patched into its records, as a real tap sees — the
// fingerprint repeats, the record bytes never do. The patching happens one
// chunk at a time outside the timed region.
//
// Rows, all on that fresh input unless labelled otherwise:
//   cache off              the ObserveCache disabled
//   cache on               the default capacity
//   cache on + telemetry   the same with live counter handles attached
//   upper bound (replay)   the pool replayed byte for byte, cache on: the
//                          hit-rate ceiling that no tap reaches
// The binary fails if a cache-on monitor disagrees with its cache-off twin
// on a single exported counter (the replay row is checked against a
// cache-off replay of the same bytes).
//
// Environment knobs:
//   TLS_BENCH_POOL     distinct captures in the pool (default 400)
//   TLS_BENCH_REPLAY   observations per run (default 200000)
//   TLS_BENCH_REPEATS  timing repeats per row; each repeat observes the
//                      identical stream into a fresh monitor and the row
//                      reports the best (default 3)
//   TLS_BENCH_JSON     output path (default BENCH_observe.json)
//   TLS_STUDY_SEED     pool-sampling and patching seed (default 42)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "telemetry/metrics.hpp"
#include "wire/server_key_exchange.hpp"

namespace {

using tls::core::Month;
using tls::population::GenCache;

struct Capture {
  std::vector<std::uint8_t> client;
  std::vector<std::uint8_t> server;
  std::vector<std::uint8_t> ske;
  std::vector<std::uint8_t> alert;
  bool success = false;
  bool used_fallback = false;
};

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::strtoull(v, nullptr, 10);
}

// Serializes one generated event exactly the way PassiveMonitor::observe
// does, so the replay stream is indistinguishable from live capture.
Capture to_capture(const tls::population::ConnectionEvent& ev) {
  Capture c;
  c.client = ev.hello.serialize_record();
  c.success = ev.result.success;
  c.used_fallback = ev.used_fallback;
  if (ev.result.server_hello.has_value()) {
    const auto& sh = *ev.result.server_hello;
    c.server = sh.serialize_record();
    if (ev.result.negotiated_group != 0 &&
        !sh.has_extension(tls::core::ExtensionType::kSupportedVersions)) {
      c.ske = tls::wire::EcdheServerKeyExchange::stub(ev.result.negotiated_group)
                  .serialize_record(sh.legacy_version);
    }
  }
  if (!ev.result.success &&
      ev.result.failure != tls::handshake::FailureReason::kNone) {
    c.alert =
        tls::handshake::alert_for(ev.result.failure).serialize_record(0x0301);
  }
  return c;
}

void fill_random(std::uint8_t* out, std::size_t n, tls::core::Rng& rng) {
  while (n > 0) {
    const std::uint64_t v = rng.next();
    const std::size_t k = std::min<std::size_t>(n, 8);
    std::memcpy(out, &v, k);
    out += k;
    n -= k;
  }
}

// Length of the session id in a hello record (client or server: both put
// the random at 11 and the id length byte right after it), or nullopt when
// the record is too short to hold it.
std::optional<std::size_t> session_id_length(
    const std::vector<std::uint8_t>& record) {
  constexpr std::size_t kLengthAt = GenCache::kSessionIdOffset - 1;
  if (record.size() <= kLengthAt) return std::nullopt;
  const std::size_t n = record[kLengthAt];
  if (GenCache::kSessionIdOffset + n > record.size()) return std::nullopt;
  return n;
}

// Patches a fresh client random and session id into `c`, and a fresh
// random into its ServerHello. A server that echoes the client's session
// id (a resumed handshake, or TLS 1.3's legacy echo) gets the new id too.
void refresh(Capture& c, tls::core::Rng& rng) {
  constexpr std::size_t kRandomBytes = 32;
  const auto sid = session_id_length(c.client);
  if (!sid) return;
  std::uint8_t* client_sid = c.client.data() + GenCache::kSessionIdOffset;
  const bool echoed =
      *sid > 0 && session_id_length(c.server) == sid &&
      std::memcmp(c.server.data() + GenCache::kSessionIdOffset, client_sid,
                  *sid) == 0;
  fill_random(c.client.data() + GenCache::kRandomOffset, kRandomBytes, rng);
  fill_random(client_sid, *sid, rng);
  if (c.server.size() >= GenCache::kRandomOffset + kRandomBytes) {
    fill_random(c.server.data() + GenCache::kRandomOffset, kRandomBytes, rng);
  }
  if (echoed) {
    std::memcpy(c.server.data() + GenCache::kSessionIdOffset, client_sid,
                *sid);
  }
}

// Exhaustive text digest of a monitor's exported state; byte equality of
// two digests is the cache-on/off correctness gate.
std::string digest(const tls::notary::PassiveMonitor& mon) {
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
    for (const auto& [k, n] : s.negotiated_kex()) {
      out << "k " << static_cast<int>(k) << ' ' << n << '\n';
    }
    for (const auto& [a, n] : s.negotiated_aead()) {
      out << "a " << static_cast<int>(a) << ' ' << n << '\n';
    }
    for (const auto& [g, n] : s.negotiated_group()) {
      out << "g " << g << ' ' << n << '\n';
    }
    for (const auto& [d, n] : s.alerts()) {
      out << "al " << static_cast<int>(d) << ' ' << n << '\n';
    }
    for (const auto& [e, n] : s.parse_errors()) {
      out << "e " << static_cast<int>(e) << ' ' << n << '\n';
    }
    for (const auto& [hash, flags] : std::map<std::string, std::uint8_t>(
             s.fingerprints.begin(), s.fingerprints.end())) {
      out << "f " << hash << ' ' << static_cast<int>(flags) << '\n';
    }
  }
  return out.str();
}

// Samples `pool_size` non-SSLv2 captures from a fresh generator stream.
std::vector<Capture> build_pool(const tls::population::MarketModel& market,
                                const tls::servers::ServerPopulation& servers,
                                Month m, std::size_t pool_size,
                                std::uint64_t seed) {
  std::vector<Capture> pool;
  pool.reserve(pool_size);
  tls::population::TrafficGenerator gen(market, servers, seed);
  while (pool.size() < pool_size) {
    gen.generate_month(m, 1,
                       [&](const tls::population::ConnectionEvent& ev) {
                         if (!ev.sslv2 && pool.size() < pool_size) {
                           pool.push_back(to_capture(ev));
                         }
                       });
  }
  return pool;
}

// Observes `total` captures cycled from `pool` and returns observations
// per second of time spent in observe_wire. With `fresh_seed`, each chunk
// is copied and refreshed (untimed) before it is observed; without, the
// pool's bytes are replayed as they are.
double run(tls::notary::PassiveMonitor& mon, Month m,
           const std::vector<Capture>& pool, std::size_t total,
           std::optional<std::uint64_t> fresh_seed) {
  constexpr std::size_t kChunk = 1024;
  const tls::core::Date day(m.year(), m.month(), 15);
  tls::core::Rng rng(fresh_seed.value_or(0));
  std::vector<Capture> chunk;
  double wall = 0;
  for (std::size_t done = 0; done < total;) {
    const std::size_t n = std::min(kChunk, total - done);
    if (fresh_seed) {
      chunk.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        chunk[i] = pool[(done + i) % pool.size()];
        refresh(chunk[i], rng);
      }
    }
    wall += bench::timed_seconds([&] {
      for (std::size_t i = 0; i < n; ++i) {
        const Capture& c =
            fresh_seed ? chunk[i] : pool[(done + i) % pool.size()];
        mon.observe_wire(m, day, c.client, c.server, c.ske, c.success,
                         c.used_fallback, c.alert);
      }
    });
    done += n;
  }
  return wall > 0 ? static_cast<double>(total) / wall : 0.0;
}

}  // namespace

int main() {
  const std::size_t pool_size = env_size("TLS_BENCH_POOL", 400);
  const std::size_t total = env_size("TLS_BENCH_REPLAY", 200000);
  const std::size_t repeats = std::max<std::size_t>(
      1, env_size("TLS_BENCH_REPEATS", 3));
  const char* json_path_env = std::getenv("TLS_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr ? json_path_env : "BENCH_observe.json";
  const std::uint64_t seed = env_size("TLS_STUDY_SEED", 42);

  // Default catalog mix at a fingerprint-era month.
  const auto catalog = tls::clients::Catalog::standard();
  const auto database = tls::study::LongitudinalStudy::build_database(catalog);
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);
  const Month m(2017, 1);

  const std::vector<Capture> pool =
      build_pool(market, servers, m, pool_size, seed);

  std::printf("== bench_observe_throughput ==\n");
  std::printf(
      "pool=%zu capture templates, %zu observations per run, fresh client "
      "random + session id + server random per observation\n\n",
      pool.size(), total);

  // Every repeat observes the identical deterministic stream into a fresh
  // monitor, so taking the fastest repeat filters scheduler noise while the
  // surviving monitor's state (used for digests and hit rates) is the same
  // whichever repeat ran fastest. All rows are interleaved inside one
  // repeat loop so that slow drift hits every config equally.
  const std::uint64_t fresh_seed = seed ^ 0xf4e5'11a7ull;
  tls::telemetry::MetricsRegistry registry;
  std::optional<tls::notary::PassiveMonitor> off, on, telem, replay;
  double off_cps = 0, on_cps = 0, telem_cps = 0, replay_cps = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    off.emplace(&database);
    off->set_observe_cache_capacity(0);
    off_cps = std::max(off_cps, run(*off, m, pool, total, fresh_seed));

    on.emplace(&database);
    on_cps = std::max(on_cps, run(*on, m, pool, total, fresh_seed));

    // Telemetry-attached run: the cache-on config with live counter
    // handles. The delta vs `on_cps` is the enabled-hook overhead.
    telem.emplace(&database);
    telem->set_telemetry(&registry);
    telem_cps = std::max(telem_cps, run(*telem, m, pool, total, fresh_seed));
    telem->set_telemetry(nullptr);

    replay.emplace(&database);
    replay_cps =
        std::max(replay_cps, run(*replay, m, pool, total, std::nullopt));
  }
  // The replay row's correctness twin: the same bytes, cache off (untimed).
  tls::notary::PassiveMonitor replay_off(&database);
  replay_off.set_observe_cache_capacity(0);
  run(replay_off, m, pool, total, std::nullopt);

  const auto& cs = on->observe_cache_stats();
  const auto& rs = replay->observe_cache_stats();
  const double speedup = off_cps > 0 ? on_cps / off_cps : 0.0;
  const double replay_speedup = off_cps > 0 ? replay_cps / off_cps : 0.0;
  const double telem_overhead_pct =
      on_cps > 0 ? 100.0 * (on_cps - telem_cps) / on_cps : 0.0;
  const std::string off_digest = digest(*off);
  const bool identical = off_digest == digest(*on);
  const bool telem_identical = off_digest == digest(*telem);
  const bool replay_identical = digest(replay_off) == digest(*replay);

  const auto fmt = [](const char* format, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), format, v);
    return std::string(buf);
  };
  const auto verdict = [](bool same) {
    return same ? "bit-identical" : "MISMATCH";
  };
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"config", "conn/s", "hit rate", "figures"});
  rows.push_back({"cache off", fmt("%.0f", off_cps), "-", "baseline"});
  rows.push_back({"cache on", fmt("%.0f", on_cps),
                  fmt("%.3f", cs.client.hit_rate()), verdict(identical)});
  rows.push_back({"cache on + telemetry", fmt("%.0f", telem_cps),
                  fmt("%.3f", cs.client.hit_rate()),
                  verdict(telem_identical)});
  rows.push_back({"upper bound (replay)", fmt("%.0f", replay_cps),
                  fmt("%.3f", rs.client.hit_rate()),
                  verdict(replay_identical)});
  std::fputs(tls::analysis::render_table(rows).c_str(), stdout);
  std::printf("\ncache on vs off: %.2fx\n", speedup);
  std::printf("telemetry overhead: %+.1f%% (enabled hooks vs cache-on)\n",
              telem_overhead_pct);
  std::printf(
      "upper bound (replay of %zu byte-identical records): %.2fx of cache "
      "off, not reachable on live traffic\n",
      pool.size(), replay_speedup);

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"input\": \"fresh client random, session id and server random "
          "per observation\",\n"
       << "  \"connections\": " << total << ",\n"
       << "  \"pool_templates\": " << pool.size() << ",\n"
       << "  \"cache_off_cps\": " << static_cast<std::uint64_t>(off_cps)
       << ",\n"
       << "  \"cache_on_cps\": " << static_cast<std::uint64_t>(on_cps)
       << ",\n"
       << "  \"telemetry_on_cps\": " << static_cast<std::uint64_t>(telem_cps)
       << ",\n"
       << "  \"telemetry_overhead_pct\": " << telem_overhead_pct << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"client_hit_rate\": " << cs.client.hit_rate() << ",\n"
       << "  \"server_hit_rate\": " << cs.server.hit_rate() << ",\n"
       << "  \"evictions\": " << cs.client.evictions + cs.server.evictions
       << ",\n"
       << "  \"replay_upper_bound_cps\": "
       << static_cast<std::uint64_t>(replay_cps) << ",\n"
       << "  \"replay_upper_bound_speedup\": " << replay_speedup << ",\n"
       << "  \"replay_client_hit_rate\": " << rs.client.hit_rate() << ",\n"
       << "  \"identical\": "
       << (identical && telem_identical && replay_identical ? "true"
                                                            : "false")
       << "\n"
       << "}\n";
  std::printf("wrote %s\n", json_path.c_str());

  if (!identical || !telem_identical || !replay_identical) {
    std::fprintf(stderr,
                 "FAIL: a cache-on monitor diverged from cache-off "
                 "(cache on %s, telemetry %s, replay %s)\n",
                 verdict(identical), verdict(telem_identical),
                 verdict(replay_identical));
    return 1;
  }
  return 0;
}
