// tap: ingest only. Captures are pre-generated from the fingerprint-era
// months and fed on one thread through PassiveMonitor::observe_wire, the
// byte-path call the daemon's shard workers make. Each capture gets fresh
// randoms before it is fed, outside the timed call.
#include <algorithm>
#include <filesystem>
#include <memory>

#include "core/study.hpp"
#include "notary/monitor.hpp"
#include "notary/snapshot.hpp"
#include "pool.hpp"
#include "probes.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kPoolCaptures = 40000;
/// Captures per pass; every pass starts a fresh monitor, so the output
/// digest (of pass 0) does not depend on how many passes fit in a run.
constexpr std::size_t kPassCaptures = 50000;
/// Captures between two timings of the reference kernel inside a pass.
constexpr std::size_t kReferenceEvery = 5000;

tls::core::Month month_of(const tls::daemon::CapturePayload& c) {
  return tls::core::Month(static_cast<int>(c.month_index / 12),
                          static_cast<int>(c.month_index % 12) + 1);
}

struct Pass {
  std::uint64_t observe_ns = 0;
  std::uint64_t wall_ns = 0;
};

/// Feeds `count` pool captures (starting at `first`) into `monitor`, one
/// observe call each, timing every call. With a tracer each call is also a
/// "notary.observe_wire" span. With `references`, the reference kernel is
/// timed every kReferenceEvery captures, outside the observe calls.
Pass feed(CapturePool& pool, std::size_t first, std::size_t count,
          tls::core::Rng& rng, tls::notary::PassiveMonitor& monitor,
          Tracer* tracer, std::vector<double>* latencies_us,
          std::vector<double>* references, std::vector<std::uint64_t>& keys) {
  Pass pass;
  const std::uint64_t w0 = now_ns();
  for (std::size_t i = 0; i < count; ++i) {
    if (references != nullptr && i % kReferenceEvery == 0) {
      references->push_back(reference_kernel_ns());
    }
    const std::size_t idx = (first + i) % pool.size();
    if (const auto key = pool.refresh_capture(idx, rng)) keys.push_back(*key);
    const auto& c = pool.at(idx).capture;
    const auto month = month_of(c);
    Span span(tracer, "notary.observe_wire", 0, first + i);
    const std::uint64_t t0 = now_ns();
    if (c.sslv2) {
      monitor.observe_sslv2(month);
    } else {
      monitor.observe_wire(month, c.day, c.client, c.server, c.ske, c.success,
                           c.used_fallback, c.alert);
    }
    const std::uint64_t dt = now_ns() - t0;
    span.end();
    pass.observe_ns += dt;
    if (latencies_us != nullptr) latencies_us->push_back(ns_to_us(dt));
  }
  pass.wall_ns = now_ns() - w0;
  return pass;
}

}  // namespace

bool run_tap(const Args& args, Tracer* tracer, Outcome& out) {
  const std::string scratch = args.scratch + "/tap";
  std::filesystem::remove_all(scratch);
  tls::core::Rng rng(tls::core::rng_stream_seed(args.seed, 0x7a9, 0));
  std::vector<std::uint64_t> keys;

  if (tracer == nullptr) {
    // ---- set-up: catalog + database + monitor, timed kSetupRepeats
    //      times, set-up r on processor r mod nproc, each scaled by the
    //      reference kernel timed around it ----
    const ProcessorRotation rotation;
    std::vector<double> setup, setup_raw;
    std::unique_ptr<tls::clients::Catalog> catalog;
    std::unique_ptr<tls::fp::FingerprintDatabase> database;
    for (int r = 0; r < kSetupRepeats; ++r) {
      rotation.pin(static_cast<std::size_t>(r));
      const double r0 = reference_ns(3);
      const std::uint64_t t0 = now_ns();
      catalog = std::make_unique<tls::clients::Catalog>(
          tls::clients::Catalog::standard());
      database = std::make_unique<tls::fp::FingerprintDatabase>(
          tls::study::LongitudinalStudy::build_database(*catalog));
      const tls::notary::PassiveMonitor monitor(database.get());
      const double seconds = ns_to_s(now_ns() - t0);
      setup_raw.push_back(seconds);
      setup.push_back(scale_time(seconds, (r0 + reference_ns(3)) / 2));
    }

    // ---- inputs (untimed) ----
    const auto servers = tls::servers::ServerPopulation::standard();
    const auto market = tls::population::MarketModel::standard(*catalog);
    CapturePool pool;
    GenerationStats gen;
    pool.generate(market, servers, args.seed, fingerprint_era(), kPoolCaptures,
                  nullptr, gen);

    // ---- passes until the run time is used, each into a fresh monitor ----
    // A pass reuses pool entries, so a refresh that stopped re-drawing the
    // randoms shows up as a repeated record inside the pass; checking per
    // pass keeps the memory of the check independent of the throughput.
    std::vector<double> rates, rates_raw, p50s, tails, latencies, references;
    std::uint64_t fed = 0, quarantined_total = 0;
    double ratio = 1.0;
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
    // Pass p runs on processor p mod nproc.
    for (std::size_t p = 0; p == 0 || now_ns() < deadline; ++p) {
      rotation.pin(p);
      tls::notary::PassiveMonitor monitor(database.get());
      latencies.clear();
      references.clear();
      keys.clear();
      const Pass pass = feed(pool, p * kPassCaptures, kPassCaptures, rng,
                             monitor, nullptr, &latencies, &references, keys);
      ratio = std::min(ratio, distinct_ratio(keys));
      const Summary lat = summarize(latencies);
      const double reference = median(references);
      rates_raw.push_back(static_cast<double>(kPassCaptures) /
                          ns_to_s(pass.observe_ns));
      rates.push_back(scale_rate(rates_raw.back(), reference));
      p50s.push_back(scale_time(lat.p50, reference));
      tails.push_back(scale_time(lat.tail, reference));
      fed += kPassCaptures;
      out.gate(monitor.total_connections() == kPassCaptures,
               "tap: monitor total != captures fed");
      quarantined_total += quarantined(monitor);
      if (p == 0) {
        info("tap.digest", hex64(monitor_digest(monitor)));
        info("latency.samples_per_pass", static_cast<double>(lat.n));
        info("latency.tail_quantile", lat.tail_q);
      }
    }
    info("tap.passes", static_cast<double>(rates.size()));
    info("wire.distinct_record_ratio(lowest pass)", ratio);
    out.gate(ratio == 1.0, "tap: a client record was replayed");
    info("raw.setup_s", median(setup_raw));
    info("raw.captures_per_s", best_quartile(rates_raw, true));
    out.metrics["setup_s"] = median(setup);
    out.metrics["captures_per_s"] = best_quartile(rates, true);
    out.metrics["latency_p50_us"] = best_quartile(p50s, false);
    info("latency.tail_us", best_quartile(tails, false));
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    out.attempted = fed;
    out.failed = quarantined_total;
    return true;
  }

  // ---- traced run ----
  auto& m = out.metrics;
  const Models models(tracer, m);
  CapturePool pool;
  GenerationStats gen;
  pool.generate(models.market, models.servers, args.seed, fingerprint_era(),
                kPoolCaptures, tracer, gen);
  generation_metrics(gen, m);

  // The untraced run's first pass (so its digest must match), then the
  // next pass traced, on fresh monitors.
  constexpr std::size_t kTracedCaptures = kPassCaptures;
  tls::notary::PassiveMonitor plain(&models.database);
  const Pass untraced =
      feed(pool, 0, kTracedCaptures, rng, plain, nullptr, nullptr, nullptr,
           keys);
  info("tap.digest", hex64(monitor_digest(plain)));
  tls::notary::PassiveMonitor monitor(&models.database);
  const Pass traced =
      feed(pool, kTracedCaptures, kTracedCaptures, rng, monitor, tracer,
           nullptr, nullptr, keys);
  out.attempted = 2 * kTracedCaptures;
  out.failed = quarantined(plain) + quarantined(monitor);
  out.gate(monitor.total_connections() == kTracedCaptures,
           "tap: monitor total != captures fed");
  const double ratio = distinct_ratio(keys);
  out.gate(ratio == 1.0, "tap: a client record was replayed");
  m["wire.distinct_record_ratio"] = ratio;
  m["trace.overhead_pct"] =
      100.0 * (static_cast<double>(traced.wall_ns) /
                   static_cast<double>(untraced.wall_ns) -
               1.0);

  const auto layers = layer_times(tracer->spans());
  const auto& observe = layers.at("notary.observe_wire");
  m["notary.observe_us_per_conn"] =
      observe.self_ns / static_cast<double>(observe.count) / 1e3;
  m["core.pool_busy_ratio"] = static_cast<double>(traced.observe_ns) /
                              static_cast<double>(traced.wall_ns);
  m["core.threads_running"] = 1;  // one feeding thread, no pool
  monitor_metrics(monitor, m);
  probe_absorb_encode(monitor, models.database, tracer, m);
  probe_journal(tls::notary::encode_monitor_state(monitor), 16,
                scratch + "/journal", tracer, m);
  probe_wire_fingerprint(pool, models.database, kProbeCaptures, *tracer, m);
  probe_frame_decode(pool, kProbeCaptures, tracer, m);
  const auto scans = probe_scan(models.servers, tracer, m);
  probe_export(monitor, scans, scratch + "/export", tracer, m);
  std::string error;
  if (!probe_daemon(pool, models.database, args.paced_rate, args.seed, tracer,
                    m, error)) {
    out.gate(false, "tap: daemon probe failed: " + error);
  }
  return true;
}

}  // namespace perfbench
