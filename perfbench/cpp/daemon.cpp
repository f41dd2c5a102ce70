// daemon: live ingestion. A NotaryDaemon with two shards and default
// observability is driven over loopback TCP by one generator thread on two
// sensor connections (see loadgen.hpp for the phases).
//
// Correctness: a fixed verification leg of kVerifyCaptures is sent first,
// closed loop, with every frame kept; after it drains, aggregate_monitor()
// must digest-equal batch monitors fed the same captures. Connection c
// only sends months of parity c, so each (shard, month) sees its captures
// in one connection's send order and the comparison is exact although the
// two connections interleave at random. After the timed phases the
// daemon's ledger and the client's must both close.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>

#include "core/study.hpp"
#include "daemon/daemon.hpp"
#include "notary/monitor.hpp"
#include "notary/snapshot.hpp"
#include "loadgen.hpp"
#include "pool.hpp"
#include "probes.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kPoolCaptures = 16384;
constexpr std::uint64_t kVerifyCaptures = 20000;

/// Verification leg: sends kVerifyCaptures and compares digests.
void verify_leg(tls::daemon::NotaryDaemon& daemon, CapturePool& pool,
                const tls::fp::FingerprintDatabase& database,
                const tls::daemon::DaemonConfig& config, std::uint64_t seed,
                Outcome& out, std::vector<std::uint64_t>& keys,
                LoadgenResult& load) {
  LoadgenConfig lc;
  lc.port = daemon.port();
  lc.max_captures = kVerifyCaptures;
  lc.saturation_s = 60;
  lc.keep_frames = true;
  lc.seed = tls::core::rng_stream_seed(seed, 0, 0);
  load = run_loadgen(pool, lc);
  out.gate(load.ok, "daemon: verification leg failed: " + load.error);
  if (!load.ok) return;
  out.gate(load.sent == kVerifyCaptures && load.acked == load.sent,
           "daemon: verification leg did not close");
  keys.insert(keys.end(), load.record_keys.begin(), load.record_keys.end());

  // Batch reference: per-shard monitors routed like the daemon, absorbed
  // in shard order.
  std::vector<std::unique_ptr<tls::notary::PassiveMonitor>> shards;
  for (std::size_t s = 0; s < config.shards; ++s) {
    shards.push_back(std::make_unique<tls::notary::PassiveMonitor>(&database));
    shards.back()->set_observe_cache_capacity(config.observe_cache_entries);
  }
  for (const auto& frames : load.frames) {
    for (const auto& frame : frames) {
      const auto c = tls::daemon::decode_capture(
          {frame.data() + tls::daemon::kFrameHeaderBytes,
           frame.size() - tls::daemon::kFrameHeaderBytes -
               tls::daemon::kFrameTrailerBytes});
      const tls::core::Month month(static_cast<int>(c.month_index / 12),
                                   static_cast<int>(c.month_index % 12) + 1);
      const std::size_t s =
          c.client.empty()
              ? c.month_index % config.shards
              : tls::notary::ObserveCache::fnv1a64(c.client) % config.shards;
      if (c.sslv2) {
        shards[s]->observe_sslv2(month);
      } else {
        shards[s]->observe_wire(month, c.day, c.client, c.server, c.ske,
                                c.success, c.used_fallback, c.alert);
      }
    }
  }
  tls::notary::PassiveMonitor expected(&database);
  for (const auto& s : shards) expected.absorb(*s);
  const std::uint64_t want = monitor_digest(expected);
  const std::uint64_t got = monitor_digest(daemon.aggregate_monitor());
  info("daemon.digest", hex64(got));
  out.gate(got == want, "daemon: aggregate digest != batch digest (" +
                            hex64(got) + " vs " + hex64(want) + ")");
  load.frames.clear();
}

/// Ledger gates after every leg drained.
void check_ledgers(const tls::daemon::DaemonCounters& c,
                   std::uint64_t client_sent, Outcome& out) {
  out.gate(c.offered == c.ingested + c.shed + c.malformed,
           "daemon: offered != ingested + shed + malformed");
  out.gate(c.offered == client_sent, "daemon: offered != captures sent");
}

}  // namespace

bool run_daemon(const Args& args, Tracer* tracer, Outcome& out) {
  std::vector<std::uint64_t> keys;

  if (tracer == nullptr) {
    // ---- set-up: catalog + database + NotaryDaemon::start(), repeated
    //      before and after the timed cycles ----
    std::vector<double> setup, setup_raw;
    // Set-up r runs on processor r mod nproc (its daemon threads inherit
    // the pin and end with it), scaled by the reference kernel timed
    // around it; the measured daemon starts unpinned.
    const ProcessorRotation rotation;
    const auto set_up = [&](int repeats) {
      for (int r = 0; r < repeats; ++r) {
        rotation.pin(setup.size());
        const double r0 = reference_ns(3);
        const std::uint64_t t0 = now_ns();
        const auto catalog = tls::clients::Catalog::standard();
        const auto database =
            tls::study::LongitudinalStudy::build_database(catalog);
        tls::daemon::NotaryDaemon daemon(daemon_config(database));
        if (!daemon.start()) {
          std::cerr << "perfbench: daemon start: " << daemon.last_error()
                    << "\n";
          return false;
        }
        const double seconds = ns_to_s(now_ns() - t0);
        daemon.request_stop();
        daemon.join();
        setup_raw.push_back(seconds);
        setup.push_back(scale_time(seconds, (r0 + reference_ns(3)) / 2));
      }
      rotation.release();
      return true;
    };
    if (!set_up(kSetupRepeats / 2)) return false;
    const auto catalog = std::make_unique<tls::clients::Catalog>(
        tls::clients::Catalog::standard());
    const auto database = std::make_unique<tls::fp::FingerprintDatabase>(
        tls::study::LongitudinalStudy::build_database(*catalog));
    const auto config = daemon_config(*database);
    auto daemon = std::make_unique<tls::daemon::NotaryDaemon>(config);
    if (!daemon->start()) {
      std::cerr << "perfbench: daemon start: " << daemon->last_error() << "\n";
      return false;
    }

    // ---- inputs (untimed) ----
    const auto servers = tls::servers::ServerPopulation::standard();
    const auto market = tls::population::MarketModel::standard(*catalog);
    CapturePool pool;
    GenerationStats gen;
    pool.generate(market, servers, args.seed, fingerprint_era(), kPoolCaptures,
                  nullptr, gen);

    LoadgenResult verify;
    verify_leg(*daemon, pool, *database, config, args.seed, out, keys, verify);

    LoadgenResult load;
    auto timed = daemon_load(args.paced_rate, args.seconds, args.seed, 1,
                             nullptr);
    timed.reference = true;
    const auto leg = drive_daemon(*daemon, pool, timed, load);
    out.gate(leg.ok, "daemon: timed phases failed: " + leg.error);
    keys.insert(keys.end(), load.record_keys.begin(), load.record_keys.end());
    const auto counters = daemon->counters();
    daemon->request_stop();
    daemon->join();
    if (!set_up(kSetupRepeats - kSetupRepeats / 2)) return false;
    check_ledgers(counters, verify.sent + load.sent, out);
    out.gate(load.acked == load.sent && load.excess_credits == 0,
             "daemon: client ledger does not close");
    out.gate(load.threads_seen <= static_cast<int>(cpu_count()),
             "daemon: more threads than processors");
    const double ratio = distinct_ratio(std::move(keys));
    info("wire.distinct_record_ratio", ratio);
    out.gate(ratio == 1.0, "daemon: a client record was replayed");

    // Per cycle: its saturation rate and paced-window latency, scaled by
    // the reference kernel timed before and after the cycle.
    const auto& refs = load.cycle_reference_ns;
    const auto cycles = latency_by_cycle(load);
    const auto sat = saturation_rates(load, timed);
    std::vector<double> rates, rates_raw, p50s, tails;
    std::size_t fewest = SIZE_MAX;
    for (std::size_t k = 0; k < cycles.size() && k + 1 < refs.size(); ++k) {
      const double reference = (refs[k] + refs[k + 1]) / 2;
      rates_raw.push_back(sat[k]);
      rates.push_back(scale_rate(sat[k], reference));
      p50s.push_back(scale_time(cycles[k].p50, reference));
      tails.push_back(scale_time(cycles[k].tail, reference));
      fewest = std::min(fewest, cycles[k].n);
    }
    out.gate(!rates.empty(), "daemon: no measured cycle");
    info("daemon.cycles", static_cast<double>(rates.size()));
    info("latency.samples_per_cycle(min)", static_cast<double>(fewest));
    info("latency.tail_quantile", tail_quantile(fewest));
    info("latency.tail_us", best_quartile(tails, false));
    info("daemon.paced_rate", args.paced_rate);
    info("daemon.credit_stall_ratio",
         static_cast<double>(load.stalled) /
             static_cast<double>(std::max<std::uint64_t>(1, load.paced_due)));
    info("daemon.threads_seen", load.threads_seen);
    info("raw.setup_s", median(setup_raw));
    info("raw.captures_per_s", best_quartile(rates_raw, true));
    out.metrics["setup_s"] = median(setup);
    out.metrics["captures_per_s"] = best_quartile(rates, true);
    out.metrics["latency_p50_us"] = best_quartile(p50s, false);
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    const std::uint64_t scheduled = verify.scheduled + load.scheduled;
    const std::uint64_t acked = verify.acked + load.acked;
    out.attempted = scheduled;
    out.failed = counters.shed + counters.malformed +
                 (scheduled > acked ? scheduled - acked : 0);
    return true;
  }

  // ---- traced run ----
  const std::string scratch = args.scratch + "/daemon";
  std::filesystem::remove_all(scratch);
  auto& m = out.metrics;
  const Models models(tracer, m);
  const auto config = daemon_config(models.database);
  tls::daemon::NotaryDaemon daemon(config);
  {
    Span start(tracer, "daemon.start");
    if (!daemon.start()) {
      std::cerr << "perfbench: daemon start: " << daemon.last_error() << "\n";
      return false;
    }
  }
  CapturePool pool;
  GenerationStats gen;
  pool.generate(models.market, models.servers, args.seed, fingerprint_era(),
                kPoolCaptures, tracer, gen);
  generation_metrics(gen, m);

  LoadgenResult verify;
  verify_leg(daemon, pool, models.database, config, args.seed, out, keys,
             verify);

  // A short untraced leg, then the same traced: the overhead and the
  // per-layer numbers (the stage snapshots cover the first cycle).
  const auto plain_config =
      daemon_load(args.paced_rate, kTracedLegSeconds, args.seed, 1, nullptr);
  LoadgenResult plain;
  const auto plain_leg = drive_daemon(daemon, pool, plain_config, plain);
  const auto traced_config =
      daemon_load(args.paced_rate, kTracedLegSeconds, args.seed, 2, tracer);
  LoadgenResult load;
  const auto leg = drive_daemon(daemon, pool, traced_config, load);
  out.gate(plain_leg.ok && leg.ok, "daemon: traced legs failed: " +
                                        plain_leg.error + leg.error);
  keys.insert(keys.end(), plain.record_keys.begin(), plain.record_keys.end());
  keys.insert(keys.end(), load.record_keys.begin(), load.record_keys.end());
  const double plain_rate = median(saturation_rates(plain, plain_config));
  const double traced_rate = median(saturation_rates(load, traced_config));
  m["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0);
  daemon_metrics(load, leg, m);
  m["core.pool_busy_ratio"] =
      static_cast<double>(leg.sat_observe.sum) /
      (traced_config.saturation_s * 1e6 * static_cast<double>(config.shards));
  m["core.threads_running"] = load.threads_seen;
  out.gate(load.threads_seen <= static_cast<int>(cpu_count()),
           "daemon: more threads than processors");

  const auto owned = std::make_unique<tls::notary::PassiveMonitor>(
      daemon.aggregate_monitor());
  const auto& aggregate = *owned;
  const auto counters = daemon.counters();
  daemon.request_stop();
  daemon.join();
  check_ledgers(counters, verify.sent + plain.sent + load.sent, out);
  out.attempted = verify.scheduled + plain.scheduled + load.scheduled;
  out.failed = counters.shed + counters.malformed +
               (out.attempted - verify.acked - plain.acked - load.acked);

  const double ratio = distinct_ratio(std::move(keys));
  m["wire.distinct_record_ratio"] = ratio;
  out.gate(ratio == 1.0, "daemon: a client record was replayed");
  monitor_metrics(aggregate, m);
  probe_observe_wire(pool, models.database, kProbeCaptures, *tracer, m);
  probe_absorb_encode(aggregate, models.database, tracer, m);
  probe_journal(tls::notary::encode_monitor_state(aggregate), 16,
                scratch + "/journal", tracer, m);
  probe_wire_fingerprint(pool, models.database, kProbeCaptures, *tracer, m);
  probe_frame_decode(pool, kProbeCaptures, tracer, m);
  const auto scans = probe_scan(models.servers, tracer, m);
  probe_export(aggregate, scans, scratch + "/export", tracer, m);
  return true;
}

}  // namespace perfbench
