// Per-layer measurements shared by the workloads' traced runs. Each probe
// times one public call of one layer over the workload's own data and
// writes its per-layer metrics; the spans it records carry the layer name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "daemon/daemon.hpp"
#include "clients/catalog.hpp"
#include "fingerprint/database.hpp"
#include "loadgen.hpp"
#include "notary/monitor.hpp"
#include "pool.hpp"
#include "population/market.hpp"
#include "scan/scanner.hpp"
#include "servers/population.hpp"
#include "telemetry/metrics.hpp"

namespace tls::study {
class RunJournal;
}

namespace perfbench {

/// The library objects every workload builds before its first input, each
/// build timed into its per-layer metric.
struct Models {
  Models(Tracer* tracer, MetricValues& metrics);
  Models(const Models&) = delete;
  Models& operator=(const Models&) = delete;

  tls::clients::Catalog catalog;
  tls::fp::FingerprintDatabase database;
  tls::servers::ServerPopulation servers;
  tls::population::MarketModel market;
};

/// population.*: generator time per connection and GenCache hit ratios.
void generation_metrics(const GenerationStats& stats, MetricValues& out);

/// notary.cache_*, notary.quarantined and fingerprint.distinct_ratio of a
/// monitor's state.
void monitor_metrics(const tls::notary::PassiveMonitor& monitor,
                     MetricValues& out);
std::uint64_t quarantined(const tls::notary::PassiveMonitor& monitor);

/// wire.*_parse_us and fingerprint.{extract,hash,label}_us: one span per
/// call over up to `limit` pool captures.
void probe_wire_fingerprint(const CapturePool& pool,
                            const tls::fp::FingerprintDatabase& database,
                            std::size_t limit, Tracer& tracer,
                            MetricValues& out);

/// daemon.frame_decode_us: FrameDecoder::feed + decode_capture per frame.
void probe_frame_decode(const CapturePool& pool, std::size_t limit,
                        Tracer* tracer, MetricValues& out);

/// core.journal_*: per-frame append cost, flush time and fsyncs per frame
/// of a grouped RunJournal.
void journal_metrics(const tls::study::RunJournal& journal,
                     double append_ns, std::uint64_t frames, double flush_ns,
                     MetricValues& out);
/// Journals `frames` copies of `payload` (one per slot) into a fresh
/// grouped journal under `directory`, then reports journal_metrics.
void probe_journal(const std::vector<std::uint8_t>& payload,
                   std::uint32_t frames, const std::string& directory,
                   Tracer* tracer, MetricValues& out);

/// notary.absorb_us_per_shard and notary.snapshot_encode_us_per_frame for a
/// single monitor (absorbed into a fresh aggregate; encoded once).
void probe_absorb_encode(const tls::notary::PassiveMonitor& monitor,
                         const tls::fp::FingerprintDatabase& database,
                         Tracer* tracer, MetricValues& out);

/// scan.sweep_s: the serial Censys-window sweep. Returns the snapshots.
std::vector<tls::scan::ScanSnapshot> probe_scan(
    const tls::servers::ServerPopulation& servers, Tracer* tracer,
    MetricValues& out);

/// analysis.export_s: a negotiated-version chart of `monitor` and the scan
/// series written as CSV under `directory`.
void probe_export(const tls::notary::PassiveMonitor& monitor,
                  const std::vector<tls::scan::ScanSnapshot>& scans,
                  const std::string& directory, Tracer* tracer,
                  MetricValues& out);

/// Stage histogram of the daemon merged across shards ("queue",
/// "observe", ...).
tls::telemetry::Histogram stage_histogram(
    const tls::telemetry::MetricsRegistry& registry, const std::string& stage);
/// `after` minus `before`, bucket by bucket.
tls::telemetry::Histogram histogram_delta(const tls::telemetry::Histogram& after,
                                          const tls::telemetry::Histogram& before);
/// The q-quantile, interpolated linearly inside its bucket (0 when empty).
double histogram_quantile(const tls::telemetry::Histogram& h, double q);

/// A two-shard daemon driven by run_loadgen, the daemon-side half of the
/// daemon.* and loadgen.* per-layer metrics.
struct DaemonLegResult {
  bool ok = false;
  std::string error;
  tls::daemon::DaemonCounters counters;
  /// Stage histograms over the paced phase, and observe over saturation.
  tls::telemetry::Histogram queue, observe, complete, sat_observe;
};

/// daemon.credit_stall_ratio, captures_per_grant, ack_p99_us (all paced
/// samples pooled), stage_*, shed, malformed and loadgen.lateness_p99_us /
/// encode_us from one loadgen run.
void daemon_metrics(const LoadgenResult& load,
                    const DaemonLegResult& leg, MetricValues& out);

/// Runs `config` against a started daemon, with stage snapshots at the
/// phase edges; the counters are read after the drain.
DaemonLegResult drive_daemon(tls::daemon::NotaryDaemon& daemon,
                             CapturePool& pool, LoadgenConfig config,
                             LoadgenResult& load);

/// The daemon configuration of every daemon leg: two shards, everything
/// else (credit window, queues, cache, observability) at its default.
tls::daemon::DaemonConfig daemon_config(
    const tls::fp::FingerprintDatabase& database);

/// The daemon workload's load: as many cycles of settle (0.1 s), measured
/// paced window (0.9 s) and saturation (0.5 s) as fit in `seconds` (at
/// least one), paced at `paced_rate`, randoms drawn from stream `leg` of
/// `seed`.
LoadgenConfig daemon_load(double paced_rate, double seconds,
                          std::uint64_t seed, std::uint64_t leg,
                          Tracer* tracer);
/// Seconds of the traced daemon leg every workload measures.
inline constexpr double kTracedLegSeconds = 3.0;

/// The daemon.* and loadgen.* metrics for a workload that does not run a
/// daemon itself: a fresh two-shard daemon driven by the traced leg of the
/// daemon workload (daemon_load over kTracedLegSeconds) with `pool`'s
/// captures. Returns false with `error` set on failure.
bool probe_daemon(CapturePool& pool,
                  const tls::fp::FingerprintDatabase& database,
                  double paced_rate, std::uint64_t seed, Tracer* tracer,
                  MetricValues& out, std::string& error);

/// notary.observe_us_per_conn off the tap's path: up to `limit` pool
/// captures fed through observe_wire into a fresh monitor, one span each;
/// the mean self time per call.
void probe_observe_wire(const CapturePool& pool,
                        const tls::fp::FingerprintDatabase& database,
                        std::size_t limit, Tracer& tracer, MetricValues& out);

}  // namespace perfbench
