// Unified metrics registry — the single interface every subsystem's
// observability counters report through (GenCache hit/miss stats,
// ErrorTaxonomy totals, QuarantineRing occupancy, checkpoint frame counts,
// ThreadPool task accounting, fault-injector triggers, pipeline phase
// timers). Three metric kinds:
//
//   counter    monotonic u64; merge = addition
//   gauge      u64 snapshot;  merge = max (associative + commutative, so a
//              late re-set never depends on merge order)
//   histogram  fixed upper-bound buckets over u64 samples (+Inf implicit);
//              merge = per-bucket addition, plus exact count/sum/min/max
//
// Determinism contract (DESIGN.md §12): every merge is associative and
// commutative over exact integer state, so folding per-shard samples in
// the study's fixed (month, shard) plan order, or merging the daemon's
// per-shard registries, yields a thread-count-independent result for every
// metric whose samples are themselves deterministic. Wall-clock-derived metrics are registered with
// timing=true and excluded from deterministic_digest() — they exist only
// in the metrics/trace artifacts, never in exported CSV bytes.
//
// Naming convention: tls_repro_<subsystem>_<name><unit> where <unit> is a
// trailing component — `_total` for unitless counts, `_us` for
// microseconds, `_bytes` for sizes. Label sets are attached as a
// Prometheus label body string (e.g. `kind="bit_flip"`); the registry key
// is `name{labels}` and iteration is in sorted key order.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tls::telemetry {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t n = 1) { value += n; }
};

/// Point-in-time snapshot; merge keeps the maximum so shard merges are
/// order-independent.
struct Gauge {
  std::uint64_t value = 0;
  void set(std::uint64_t v) { value = v; }
};

struct Histogram {
  /// Ascending upper bounds (inclusive, `sample <= bound`); one implicit
  /// +Inf bucket follows the last bound.
  std::vector<std::uint64_t> bounds;
  /// bounds.size() + 1 entries; counts[i] is the i-th bucket, back() is
  /// the +Inf overflow bucket.
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // meaningful only when count > 0
  std::uint64_t max = 0;

  void record(std::uint64_t sample);
  /// Per-bucket addition when bounds match; a bounds mismatch (a
  /// programming error) still folds count/sum/min/max so no sample is
  /// silently dropped from the totals.
  void merge(const Histogram& other);
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper-bound quantile: the smallest bucket bound covering fraction `q`
  /// of the samples (conservative — never understates); `max` when that
  /// is the +Inf bucket, 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const;
};

/// Log-linear (HDR-style) bucket bounds: each power-of-two octave from
/// `lo` up to at least `hi` is split into `subdiv` linear sub-buckets, so
/// relative resolution stays roughly constant (~1/subdiv) across the whole
/// dynamic range instead of collapsing to one bucket per decade. Bounds
/// are strictly ascending; duplicates from integer rounding at the small
/// end are collapsed. The shape behind every latency histogram (DESIGN.md
/// §17).
[[nodiscard]] std::vector<std::uint64_t> log_linear_buckets(
    std::uint64_t lo, std::uint64_t hi, unsigned subdiv);

/// The bounds of every latency histogram, in the batch study and the
/// daemon alike: 1us .. ~67s at 4 sub-buckets per octave (~26 octaves,
/// ~104 buckets) — wide enough that a credit stall behind a shed storm
/// and a sub-microsecond decode land in meaningfully different buckets of
/// the same histogram, and fine enough that p50/p99 mean something.
/// Built once; every caller shares the one ladder.
[[nodiscard]] const std::vector<std::uint64_t>& wide_latency_buckets_us();

struct Metric {
  MetricKind kind = MetricKind::kCounter;
  std::string name;    // base name (before any label set)
  std::string labels;  // Prometheus label body, e.g. kind="bit_flip"
  std::string help;
  /// Wall-clock- or schedule-derived (timings, cache-warmth counters):
  /// excluded from deterministic_digest().
  bool timing = false;

  Counter counter;
  Gauge gauge;
  Histogram histogram;
};

/// Name-keyed metric store with deterministic (sorted-key) iteration and
/// stable metric addresses: entries live in a std::map, so a Counter*
/// handle resolved once stays valid for the registry's lifetime — the
/// lock-free per-shard hot-path idiom (one registry per shard, no shared
/// mutable state, merged after the fact).
class MetricsRegistry {
 public:
  /// Find-or-create. The first registration fixes help/timing (and bucket
  /// bounds for histograms, copied only then); later calls with the same
  /// key reuse the entry.
  Counter& counter(std::string_view name, std::string_view labels = {},
                   std::string_view help = {}, bool timing = false);
  Gauge& gauge(std::string_view name, std::string_view labels = {},
               std::string_view help = {}, bool timing = false);
  Histogram& histogram(std::string_view name,
                       std::span<const std::uint64_t> bounds,
                       std::string_view labels = {},
                       std::string_view help = {}, bool timing = true);
  Histogram& histogram(std::string_view name,
                       std::initializer_list<std::uint64_t> bounds,
                       std::string_view labels = {},
                       std::string_view help = {}, bool timing = true) {
    return histogram(name, std::span(bounds.begin(), bounds.size()), labels,
                     help, timing);
  }

  /// Folds `other` into this registry: counters add, gauges max,
  /// histograms bucket-add; unseen metrics are copied. Associative and
  /// commutative, so any fixed fold order yields the same state.
  void merge(const MetricsRegistry& other);

  /// Metrics keyed by `name` or `name{labels}`, sorted.
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }
  [[nodiscard]] const Metric* find(std::string_view name,
                                   std::string_view labels = {}) const;
  [[nodiscard]] std::size_t size() const { return metrics_.size(); }
  [[nodiscard]] bool empty() const { return metrics_.empty(); }

  static std::string key_of(std::string_view name, std::string_view labels);

 private:
  Metric& resolve(MetricKind kind, std::string_view name,
                  std::string_view labels, std::string_view help,
                  bool timing);

  std::map<std::string, Metric> metrics_;
};

}  // namespace tls::telemetry
