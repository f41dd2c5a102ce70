#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "analysis/csv.hpp"
#include "core/checkpoint.hpp"
#include "core/study.hpp"
#include "fingerprint/fingerprint.hpp"
#include "notary/snapshot.hpp"
#include "tlscore/dates.hpp"
#include "wire/client_hello.hpp"
#include "wire/server_hello.hpp"

namespace perfbench {
namespace {

template <typename Build>
auto timed_build(Tracer* tracer, const char* name, MetricValues& out,
                 Build build) {
  Span span(tracer, name);
  const std::uint64_t t0 = now_ns();
  auto value = build();
  out[name] = ns_to_s(now_ns() - t0);
  return value;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Mean duration (us) of the spans named `name` recorded since `from`.
double mean_span_us(const Tracer& tracer, const char* name, std::size_t from) {
  const auto spans = tracer.spans();
  double total = 0;
  std::uint64_t n = 0;
  for (std::size_t i = from; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) != name) continue;
    total += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    ++n;
  }
  return n == 0 ? 0 : total / static_cast<double>(n) / 1e3;
}

}  // namespace

Models::Models(Tracer* tracer, MetricValues& metrics)
    : catalog(timed_build(tracer, "clients.catalog_build_s", metrics,
                          [] { return tls::clients::Catalog::standard(); })),
      database(timed_build(tracer, "fingerprint.database_build_s", metrics,
                           [&] {
                             return tls::study::LongitudinalStudy::
                                 build_database(catalog);
                           })),
      servers(timed_build(tracer, "servers.population_build_s", metrics, [] {
        return tls::servers::ServerPopulation::standard();
      })),
      market(timed_build(tracer, "population.market_build_s", metrics, [&] {
        return tls::population::MarketModel::standard(catalog);
      })) {}

void generation_metrics(const GenerationStats& stats, MetricValues& out) {
  const auto& c = stats.cache;
  out["population.generate_us_per_conn"] =
      ratio(stats.generate_ns / 1e3, static_cast<double>(stats.connections));
  out["population.template_hit_ratio"] =
      ratio(static_cast<double>(c.template_hits),
            static_cast<double>(c.template_hits + c.bypasses));
  out["handshake.plan_hit_ratio"] =
      ratio(static_cast<double>(c.plan_hits),
            static_cast<double>(c.plan_hits + c.plan_misses));
}

std::uint64_t quarantined(const tls::notary::PassiveMonitor& monitor) {
  std::uint64_t n = 0;
  for (const auto& [month, stats] : monitor.months()) n += stats.quarantined;
  return n;
}

void monitor_metrics(const tls::notary::PassiveMonitor& monitor,
                     MetricValues& out) {
  const auto& cs = monitor.observe_cache_stats();
  const double hits = static_cast<double>(cs.client.hits + cs.server.hits);
  const double lookups =
      hits + static_cast<double>(cs.client.misses + cs.server.misses);
  out["notary.cache_lookups"] = lookups;
  out["notary.cache_hit_ratio"] = ratio(hits, lookups);
  out["notary.quarantined"] = static_cast<double>(quarantined(monitor));
  out["fingerprint.distinct_ratio"] =
      ratio(static_cast<double>(monitor.durations().size()),
            static_cast<double>(monitor.fingerprintable_connections()));
}

void probe_wire_fingerprint(const CapturePool& pool,
                            const tls::fp::FingerprintDatabase& database,
                            std::size_t limit, Tracer& tracer,
                            MetricValues& out) {
  Tracer* t = &tracer;
  const std::size_t from = tracer.spans().size();
  const std::size_t n = std::min(limit, pool.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = pool.at(i).capture;
    if (c.sslv2 || c.client.empty()) continue;
    try {
      tls::wire::ClientHello hello;
      {
        Span s(t, "wire.client_parse", 0, i);
        hello = tls::wire::ClientHello::parse_record(c.client);
      }
      tls::fp::Fingerprint fp;
      {
        Span s(t, "fingerprint.extract", 0, i);
        fp = tls::fp::extract_fingerprint(hello);
      }
      std::string hash;
      {
        Span s(t, "fingerprint.hash", 0, i);
        hash = fp.hash();
      }
      {
        Span s(t, "fingerprint.label", 0, i);
        [[maybe_unused]] const auto* label = database.lookup(hash);
      }
    } catch (const std::exception&) {
      // Unparseable records are the monitor's quarantine path, not a cost
      // of these layers.
    }
    if (c.server.empty()) continue;
    try {
      Span s(t, "wire.server_parse", 0, i);
      [[maybe_unused]] const auto sh =
          tls::wire::ServerHello::parse_record(c.server);
    } catch (const std::exception&) {
    }
  }
  for (const char* layer :
       {"wire.client_parse", "wire.server_parse", "fingerprint.extract",
        "fingerprint.hash", "fingerprint.label"}) {
    out[std::string(layer) + "_us"] = mean_span_us(tracer, layer, from);
  }
}

void probe_frame_decode(const CapturePool& pool, std::size_t limit,
                        Tracer* tracer, MetricValues& out) {
  const std::size_t n = std::min(limit, pool.size());
  tls::daemon::FrameDecoder decoder;
  std::uint64_t total = 0, frames = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Span s(tracer, "daemon.frame_decode", 0, i);
    const std::uint64_t t0 = now_ns();
    for (const auto& frame : decoder.feed(pool.at(i).frame)) {
      [[maybe_unused]] const auto capture =
          tls::daemon::decode_capture(frame.payload);
      ++frames;
    }
    total += now_ns() - t0;
  }
  out["daemon.frame_decode_us"] =
      ratio(static_cast<double>(total) / 1e3, static_cast<double>(frames));
}

void journal_metrics(const tls::study::RunJournal& journal, double append_ns,
                     std::uint64_t frames, double flush_ns, MetricValues& out) {
  tls::telemetry::MetricsRegistry registry;
  journal.collect_metrics(registry);
  const auto* fsyncs = registry.find("tls_repro_journal_fsync_total");
  const double f = static_cast<double>(frames);
  out["core.journal_append_us_per_frame"] = ratio(append_ns / 1e3, f);
  out["core.journal_flush_ms"] = flush_ns / 1e6;
  out["core.journal_fsyncs_per_frame"] =
      ratio(fsyncs != nullptr ? static_cast<double>(fsyncs->counter.value) : 0,
            f);
}

void probe_journal(const std::vector<std::uint8_t>& payload,
                   std::uint32_t frames, const std::string& directory,
                   Tracer* tracer, MetricValues& out) {
  std::filesystem::remove_all(directory);
  tls::study::RunJournal::Config config;
  config.directory = directory;
  config.mode = tls::study::JournalMode::kGrouped;
  tls::study::RunJournal journal(std::move(config));
  double append_ns = 0;
  for (std::uint32_t slot = 0; slot < frames; ++slot) {
    Span s(tracer, "core.journal_append", 0, slot);
    const std::uint64_t t0 = now_ns();
    journal.append(tls::study::FrameKind::kPassiveShard, 0, slot, payload);
    append_ns += static_cast<double>(now_ns() - t0);
  }
  Span s(tracer, "core.journal_flush");
  const std::uint64_t t0 = now_ns();
  journal.flush();
  const double flush_ns = static_cast<double>(now_ns() - t0);
  s.end();
  journal_metrics(journal, append_ns, frames, flush_ns, out);
}

void probe_absorb_encode(const tls::notary::PassiveMonitor& monitor,
                         const tls::fp::FingerprintDatabase& database,
                         Tracer* tracer, MetricValues& out) {
  tls::notary::PassiveMonitor aggregate(&database);
  {
    Span s(tracer, "notary.absorb");
    const std::uint64_t t0 = now_ns();
    aggregate.absorb(monitor);
    out["notary.absorb_us_per_shard"] = ns_to_us(now_ns() - t0);
  }
  Span s(tracer, "notary.snapshot_encode");
  const std::uint64_t t0 = now_ns();
  [[maybe_unused]] const auto bytes = tls::notary::encode_monitor_state(monitor);
  out["notary.snapshot_encode_us_per_frame"] = ns_to_us(now_ns() - t0);
}

std::vector<tls::scan::ScanSnapshot> probe_scan(
    const tls::servers::ServerPopulation& servers, Tracer* tracer,
    MetricValues& out) {
  const tls::scan::ActiveScanner scanner(servers);
  Span s(tracer, "scan.sweep");
  const std::uint64_t t0 = now_ns();
  auto snaps = scanner.scan_range(tls::core::censys_window());
  out["scan.sweep_s"] = ns_to_s(now_ns() - t0);
  return snaps;
}

void probe_export(const tls::notary::PassiveMonitor& monitor,
                  const std::vector<tls::scan::ScanSnapshot>& scans,
                  const std::string& directory, Tracer* tracer,
                  MetricValues& out) {
  std::filesystem::create_directories(directory);
  tls::analysis::MonthlyChart chart;
  chart.title = "Negotiated versions (% of successful connections)";
  if (!monitor.months().empty()) {
    chart.range = {monitor.months().begin()->first,
                   monitor.months().rbegin()->first};
  }
  for (const auto& [version, name] :
       std::initializer_list<std::pair<std::uint16_t, const char*>>{
           {0x0301, "TLSv1.0"}, {0x0302, "TLSv1.1"}, {0x0303, "TLSv1.2"}}) {
    tls::analysis::Series series;
    series.name = name;
    for (auto m = chart.range.begin_month; m <= chart.range.end_month; ++m) {
      const auto* s = monitor.month(m);
      series.values.push_back(
          s == nullptr || s->successful == 0
              ? 0.0
              : 100.0 * static_cast<double>(s->negotiated_version_count(version)) /
                    static_cast<double>(s->successful));
    }
    chart.series.push_back(std::move(series));
  }
  Span s(tracer, "analysis.export");
  const std::uint64_t t0 = now_ns();
  tls::analysis::write_csv_file(directory + "/versions.csv", chart);
  tls::analysis::write_scan_csv_file(directory + "/censys_scans.csv", scans);
  out["analysis.export_s"] = ns_to_s(now_ns() - t0);
}

tls::telemetry::Histogram stage_histogram(
    const tls::telemetry::MetricsRegistry& registry, const std::string& stage) {
  tls::telemetry::Histogram merged;
  merged.bounds = tls::telemetry::wide_latency_buckets_us();
  merged.counts.assign(merged.bounds.size() + 1, 0);
  const std::string suffix = "stage=\"" + stage + "\"";
  for (const auto& [key, metric] : registry.metrics()) {
    if (metric.name != "tls_repro_daemon_stage_us") continue;
    if (metric.labels.find(suffix) == std::string::npos) continue;
    merged.merge(metric.histogram);
  }
  return merged;
}

tls::telemetry::Histogram histogram_delta(
    const tls::telemetry::Histogram& after,
    const tls::telemetry::Histogram& before) {
  tls::telemetry::Histogram d = after;
  for (std::size_t i = 0; i < d.counts.size() && i < before.counts.size(); ++i) {
    d.counts[i] -= std::min(d.counts[i], before.counts[i]);
  }
  d.count -= std::min(d.count, before.count);
  d.sum -= std::min(d.sum, before.sum);
  return d;
}

double histogram_quantile(const tls::telemetry::Histogram& h, double q) {
  if (h.count == 0) return 0;
  const double rank =
      std::max(1.0, std::ceil(q * static_cast<double>(h.count)));
  double seen = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const auto n = static_cast<double>(h.counts[i]);
    if (n == 0 || seen + n < rank) {
      seen += n;
      continue;
    }
    // Linear interpolation inside the bucket (lo, hi].
    const double lo = i == 0 ? 0.0 : static_cast<double>(h.bounds[i - 1]);
    const double hi = i < h.bounds.size() ? static_cast<double>(h.bounds[i])
                                          : static_cast<double>(h.max);
    return lo + (hi - lo) * (rank - seen) / n;
  }
  return static_cast<double>(h.max);
}

void daemon_metrics(const LoadgenResult& load, const DaemonLegResult& leg,
                    MetricValues& out) {
  out["daemon.credit_stall_ratio"] =
      ratio(static_cast<double>(load.stalled), static_cast<double>(load.paced_due));
  out["daemon.captures_per_grant"] =
      ratio(static_cast<double>(load.granted),
            static_cast<double>(load.grant_frames));
  std::vector<double> acks;
  for (const auto& cycle : load.ack_latency_us) {
    acks.insert(acks.end(), cycle.begin(), cycle.end());
  }
  out["daemon.ack_p99_us"] = summarize(acks).tail;
  out["daemon.stage_queue_us_p99"] = histogram_quantile(leg.queue, 0.99);
  out["daemon.stage_observe_us_p50"] = histogram_quantile(leg.observe, 0.50);
  out["daemon.stage_complete_us_p50"] = histogram_quantile(leg.complete, 0.50);
  out["daemon.shed"] = static_cast<double>(leg.counters.shed);
  out["daemon.malformed"] = static_cast<double>(leg.counters.malformed);
  std::vector<double> lateness = load.lateness_us;
  out["loadgen.lateness_p99_us"] = summarize(lateness).tail;
  out["loadgen.encode_us"] =
      ratio(load.encode_ns / 1e3, static_cast<double>(load.encoded));
}

tls::daemon::DaemonConfig daemon_config(
    const tls::fp::FingerprintDatabase& database) {
  tls::daemon::DaemonConfig config;
  config.shards = 2;
  config.database = &database;
  return config;
}

DaemonLegResult drive_daemon(tls::daemon::NotaryDaemon& daemon,
                             CapturePool& pool, LoadgenConfig config,
                             LoadgenResult& load) {
  DaemonLegResult leg;
  tls::telemetry::MetricsRegistry snaps[3];
  config.port = daemon.port();
  config.on_phase = [&](int phase) { snaps[phase] = daemon.merged_metrics(); };
  load = run_loadgen(pool, config);
  if (!load.ok) {
    leg.error = load.error;
    return leg;
  }
  const auto delta = [&](const char* stage, int from, int to) {
    return histogram_delta(stage_histogram(snaps[to], stage),
                           stage_histogram(snaps[from], stage));
  };
  leg.queue = delta("queue", 0, 1);
  leg.observe = delta("observe", 0, 1);
  leg.complete = delta("complete", 0, 1);
  leg.sat_observe = delta("observe", 1, 2);
  leg.counters = daemon.counters();
  leg.ok = true;
  return leg;
}

LoadgenConfig daemon_load(double paced_rate, double seconds,
                          std::uint64_t seed, std::uint64_t leg,
                          Tracer* tracer) {
  constexpr double kSettleSeconds = 0.1;
  constexpr double kPacedSeconds = 0.9;
  constexpr double kSaturationSeconds = 0.5;
  LoadgenConfig lc;
  lc.paced_rate = paced_rate;
  lc.settle_s = kSettleSeconds;
  lc.paced_s = kPacedSeconds;
  lc.saturation_s = kSaturationSeconds;
  lc.cycles = std::max(
      1, static_cast<int>(seconds /
                          (kSettleSeconds + kPacedSeconds + kSaturationSeconds)));
  lc.seed = tls::core::rng_stream_seed(seed, leg, 0);
  lc.tracer = tracer;
  return lc;
}

bool probe_daemon(CapturePool& pool,
                  const tls::fp::FingerprintDatabase& database,
                  double paced_rate, std::uint64_t seed, Tracer* tracer,
                  MetricValues& out, std::string& error) {
  tls::daemon::NotaryDaemon daemon(daemon_config(database));
  if (!daemon.start()) {
    error = daemon.last_error();
    return false;
  }
  LoadgenResult load;
  const auto leg = drive_daemon(
      daemon, pool, daemon_load(paced_rate, kTracedLegSeconds, seed, 2, tracer),
      load);
  daemon.request_stop();
  daemon.join();
  if (!leg.ok) {
    error = leg.error;
    return false;
  }
  daemon_metrics(load, leg, out);
  return true;
}

void probe_observe_wire(const CapturePool& pool,
                        const tls::fp::FingerprintDatabase& database,
                        std::size_t limit, Tracer& tracer, MetricValues& out) {
  tls::notary::PassiveMonitor monitor(&database);
  const std::size_t from = tracer.spans().size();
  const std::size_t n = std::min(limit, pool.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = pool.at(i).capture;
    const tls::core::Month month(static_cast<int>(c.month_index / 12),
                                 static_cast<int>(c.month_index % 12) + 1);
    Span s(&tracer, "notary.observe_wire", 0, i);
    if (c.sslv2) {
      monitor.observe_sslv2(month);
    } else {
      monitor.observe_wire(month, c.day, c.client, c.server, c.ske, c.success,
                           c.used_fallback, c.alert);
    }
  }
  out["notary.observe_us_per_conn"] =
      mean_span_us(tracer, "notary.observe_wire", from);
}

}  // namespace perfbench
