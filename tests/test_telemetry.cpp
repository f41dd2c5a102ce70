// The telemetry layer's two contracts: (1) registry semantics — bucket
// boundaries, commutative/associative merges, timing-metric exclusion from
// the deterministic digest; (2) the never-perturb rule — the study always
// collects its telemetry, yet at a given fault rate every exported CSV
// byte is the same at any thread count, and the non-timing registry
// subset must itself be thread-count independent. Plus format
// validation for the three exports (METRICS.json syntax, Prometheus
// exposition lint, Chrome trace schema).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "core/shard.hpp"
#include "core/study.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace {

using tls::core::Month;
using tls::telemetry::Histogram;
using tls::telemetry::MetricsRegistry;
using tls::telemetry::TraceEvent;
using tls::telemetry::TraceRecorder;

// ---- histogram semantics ----

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h;
  h.bounds = {10, 100};
  h.record(0);
  h.record(10);   // <= 10 -> bucket 0
  h.record(11);   // -> bucket 1
  h.record(100);  // <= 100 -> bucket 1
  h.record(101);  // -> +Inf bucket
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 2u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 0u + 10 + 11 + 100 + 101);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 101u);
}

/// record() finds its bucket by binary search; every edge of the wide
/// latency ladder must land where the linear rule (the first bound
/// >= sample, else +Inf) puts it.
TEST(Histogram, BinarySearchMatchesTheLinearRuleOnTheWideLadder) {
  const auto& bounds = tls::telemetry::wide_latency_buckets_us();
  const auto linear_bucket = [&](std::uint64_t sample) {
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (sample <= bounds[i]) return i;
    }
    return bounds.size();
  };
  std::vector<std::uint64_t> samples = {0, UINT64_MAX};
  for (const auto b : bounds) {
    samples.insert(samples.end(), {b - 1, b, b + 1});
  }
  for (const auto sample : samples) {
    Histogram h;
    h.bounds = bounds;
    h.record(sample);
    const std::size_t want = linear_bucket(sample);
    ASSERT_EQ(h.counts.size(), bounds.size() + 1);
    EXPECT_EQ(h.counts[want], 1u) << "sample " << sample;
  }
}

TEST(Histogram, MergeIsCommutative) {
  Histogram a, b;
  a.bounds = b.bounds = {10, 100};
  a.record(5);
  a.record(50);
  b.record(500);
  b.record(7);

  Histogram ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.counts, ba.counts);
  EXPECT_EQ(ab.count, ba.count);
  EXPECT_EQ(ab.sum, ba.sum);
  EXPECT_EQ(ab.min, ba.min);
  EXPECT_EQ(ab.max, ba.max);
}

TEST(Histogram, MergeIntoEmptyAdoptsMinMax) {
  Histogram a, b;
  a.bounds = b.bounds = {10};
  b.record(3);
  b.record(42);
  a.merge(b);
  EXPECT_EQ(a.min, 3u);
  EXPECT_EQ(a.max, 42u);
  EXPECT_EQ(a.count, 2u);
}

TEST(Histogram, QuantileIsTheCoveringBucketBound) {
  Histogram h;
  h.bounds = {10, 100, 1000};
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty
  for (int i = 0; i < 10; ++i) h.record(5);
  for (int i = 0; i < 9; ++i) h.record(50);
  h.record(5000);
  EXPECT_EQ(h.quantile(0.50), 10u);    // 10 of 20 samples are <= 10
  EXPECT_EQ(h.quantile(0.90), 100u);   // 18 of 20 are <= 100
  EXPECT_EQ(h.quantile(0.99), 5000u);  // the +Inf bucket reports max
}

// ---- registry semantics ----

MetricsRegistry make_registry(std::uint64_t counter_v, std::uint64_t gauge_v,
                              std::initializer_list<std::uint64_t> samples) {
  MetricsRegistry r;
  r.counter("c_total").add(counter_v);
  r.gauge("g").set(gauge_v);
  auto& h = r.histogram("h_us", {10, 100});
  for (const auto s : samples) h.record(s);
  return r;
}

std::string digest_of(const MetricsRegistry& r) {
  return tls::telemetry::deterministic_digest(r);
}

TEST(MetricsRegistry, MergeIsCommutativeAndAssociative) {
  const auto a = make_registry(1, 5, {3});
  const auto b = make_registry(10, 2, {50, 5000});
  const auto c = make_registry(100, 9, {});

  MetricsRegistry ab_c;  // (a + b) + c
  ab_c.merge(a);
  ab_c.merge(b);
  ab_c.merge(c);
  MetricsRegistry c_ba;  // c + (b + a)
  MetricsRegistry ba;
  ba.merge(b);
  ba.merge(a);
  c_ba.merge(c);
  c_ba.merge(ba);
  EXPECT_EQ(digest_of(ab_c), digest_of(c_ba));

  const auto* m = ab_c.find("c_total");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->counter.value, 111u);  // counters add
  const auto* g = ab_c.find("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->gauge.value, 9u);  // gauges keep the max
}

TEST(MetricsRegistry, LabeledVariantsAreDistinctMetrics) {
  MetricsRegistry r;
  r.counter("x_total", "kind=\"a\"").add(1);
  r.counter("x_total", "kind=\"b\"").add(2);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.find("x_total", "kind=\"a\"")->counter.value, 1u);
  EXPECT_EQ(r.find("x_total", "kind=\"b\"")->counter.value, 2u);
}

TEST(MetricsRegistry, DeterministicDigestExcludesTimingMetrics) {
  MetricsRegistry a = make_registry(7, 1, {20});
  MetricsRegistry b = make_registry(7, 1, {20});
  a.counter("wall_us", "", "", /*timing=*/true).add(123456);
  b.counter("wall_us", "", "", /*timing=*/true).add(999);
  EXPECT_EQ(digest_of(a), digest_of(b));
  // ...but the full exports do differ.
  EXPECT_NE(tls::telemetry::to_metrics_json(a),
            tls::telemetry::to_metrics_json(b));
}

// ---- export formats ----

TEST(TelemetryExport, PrometheusGoldenFile) {
  MetricsRegistry r;
  r.counter("tls_repro_demo_total", "", "A demo counter").add(3);
  r.counter("tls_repro_labeled_total", "kind=\"x\"").add(1);
  auto& h = r.histogram("tls_repro_demo_us", {10, 100}, "", "A demo timer");
  h.record(5);
  h.record(50);
  h.record(5000);
  const std::string expected =
      "# HELP tls_repro_demo_total A demo counter\n"
      "# TYPE tls_repro_demo_total counter\n"
      "tls_repro_demo_total 3\n"
      "# HELP tls_repro_demo_us A demo timer\n"
      "# UNIT tls_repro_demo_us microseconds\n"
      "# TYPE tls_repro_demo_us histogram\n"
      "tls_repro_demo_us_bucket{le=\"10\"} 1\n"
      "tls_repro_demo_us_bucket{le=\"100\"} 2\n"
      "tls_repro_demo_us_bucket{le=\"+Inf\"} 3\n"
      "tls_repro_demo_us_sum 5055\n"
      "tls_repro_demo_us_count 3\n"
      "# TYPE tls_repro_labeled_total counter\n"
      "tls_repro_labeled_total{kind=\"x\"} 1\n";
  EXPECT_EQ(tls::telemetry::to_prometheus(r), expected);
}

TEST(TelemetryExport, LintAcceptsOwnOutputAndRejectsMalformed) {
  MetricsRegistry r;
  r.counter("good_total", "kind=\"a\"").add(1);
  r.histogram("good_us", {10}).record(4);
  const auto own = tls::telemetry::to_prometheus(r);
  EXPECT_TRUE(tls::telemetry::lint_prometheus(own).empty())
      << own;

  // Sample before any TYPE declaration.
  EXPECT_FALSE(tls::telemetry::lint_prometheus("orphan_total 1\n").empty());
  // Bad metric name.
  EXPECT_FALSE(tls::telemetry::lint_prometheus("# TYPE 9bad counter\n9bad 1\n")
                   .empty());
  // Histogram family missing +Inf/_sum/_count.
  EXPECT_FALSE(tls::telemetry::lint_prometheus(
                   "# TYPE h histogram\nh_bucket{le=\"10\"} 1\n")
                   .empty());
  // Malformed label body.
  EXPECT_FALSE(tls::telemetry::lint_prometheus(
                   "# TYPE x counter\nx{kind=unquoted} 1\n")
                   .empty());
  // Non-numeric sample value.
  EXPECT_FALSE(
      tls::telemetry::lint_prometheus("# TYPE x counter\nx banana\n").empty());
  // Interleaved families.
  EXPECT_FALSE(tls::telemetry::lint_prometheus("# TYPE a counter\na 1\n"
                                               "# TYPE b counter\nb 1\n"
                                               "# TYPE a counter\na 2\n")
                   .empty());
}

TEST(TelemetryExport, LintUnitMetadataMatrix) {
  // Well-formed UNIT line between HELP and TYPE is accepted.
  EXPECT_TRUE(tls::telemetry::lint_prometheus(
                  "# HELP lat_us A timer\n"
                  "# UNIT lat_us microseconds\n"
                  "# TYPE lat_us gauge\n"
                  "lat_us 5\n")
                  .empty());
  // UNIT alone (no HELP) is fine too.
  EXPECT_TRUE(tls::telemetry::lint_prometheus("# UNIT x_ms milliseconds\n"
                                              "# TYPE x_ms gauge\nx_ms 1\n")
                  .empty());
  // Bad metric name in UNIT.
  EXPECT_FALSE(tls::telemetry::lint_prometheus("# UNIT 9bad seconds\n"
                                               "# TYPE x counter\nx 1\n")
                   .empty());
  // Missing unit token.
  EXPECT_FALSE(tls::telemetry::lint_prometheus("# UNIT lat_us\n"
                                               "# TYPE lat_us gauge\n"
                                               "lat_us 1\n")
                   .empty());
  // Trailing junk after the unit token.
  EXPECT_FALSE(tls::telemetry::lint_prometheus(
                   "# UNIT lat_us microseconds approximately\n"
                   "# TYPE lat_us gauge\nlat_us 1\n")
                   .empty());
  // The exporter emits UNIT for suffixed names and its output self-lints.
  MetricsRegistry r;
  r.histogram("stage_us", {10, 100}).record(7);
  r.counter("payload_bytes").add(42);
  const auto own = tls::telemetry::to_prometheus(r);
  EXPECT_NE(own.find("# UNIT stage_us microseconds"), std::string::npos)
      << own;
  EXPECT_NE(own.find("# UNIT payload_bytes bytes"), std::string::npos) << own;
  EXPECT_TRUE(tls::telemetry::lint_prometheus(own).empty()) << own;
}

TEST(MetricsRegistry, LogLinearBucketProperties) {
  const auto buckets = tls::telemetry::log_linear_buckets(1, 64'000'000, 4);
  ASSERT_FALSE(buckets.empty());
  // Strictly increasing with no duplicates.
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LT(buckets[i - 1], buckets[i]) << "at index " << i;
  }
  // Bounded relative error: consecutive bounds within one subdivision's
  // ratio, so any recorded value lands in a bucket whose upper bound is
  // at most ~25% above it (subdiv=4).
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LE(buckets[i], buckets[i - 1] * 2) << "at index " << i;
  }
  // Covers the full requested range: the first bound is within one octave
  // of `lo` (bounds are exclusive lower / inclusive upper, so a value of
  // exactly `lo` lands in the first bucket), the last reaches past `hi`.
  EXPECT_LE(buckets.front(), 2u);
  EXPECT_GE(buckets.back(), 64'000'000u);
  // The one latency-histogram flavor is exactly this shape.
  EXPECT_EQ(tls::telemetry::wide_latency_buckets_us(), buckets);
  // Degenerate requests still produce a usable ladder.
  const auto tiny = tls::telemetry::log_linear_buckets(1, 2, 4);
  EXPECT_FALSE(tiny.empty());
  for (std::size_t i = 1; i < tiny.size(); ++i) {
    EXPECT_LT(tiny[i - 1], tiny[i]);
  }
}

TEST(TelemetryExport, MetricsJsonIsSyntacticallyValid) {
  MetricsRegistry r;
  r.counter("with_escapes_total", "", "quote \" backslash \\ done").add(1);
  r.histogram("h_us", {10}).record(3);
  const auto json = tls::telemetry::to_metrics_json(r);
  EXPECT_TRUE(tls::telemetry::json_syntax_valid(json)) << json;
  EXPECT_FALSE(tls::telemetry::json_syntax_valid("{\"unclosed\": [1, 2"));
  EXPECT_FALSE(tls::telemetry::json_syntax_valid("{} trailing"));
}

TEST(TelemetryExport, RunReportListsEveryMetric) {
  MetricsRegistry r;
  r.counter("a_total").add(7);
  r.histogram("b_us", {10}).record(3);
  // 98 fast samples and 2 slow ones: the median and the tail land in
  // different buckets, and each quantile prints its bucket's upper bound.
  auto& c = r.histogram("c_us", {10, 100, 1000});
  for (int i = 0; i < 98; ++i) c.record(5);
  c.record(500);
  c.record(500);
  const auto report = tls::telemetry::render_run_report(r);
  EXPECT_NE(report.find("a_total"), std::string::npos);
  EXPECT_NE(report.find("b_us"), std::string::npos);
  EXPECT_NE(report.find("n=1 sum=3 mean=3.0 p50=10 p99=10 max=3"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("n=100 sum=1490 mean=14.9 p50=10 p99=1000 max=500"),
            std::string::npos)
      << report;
}

// ---- trace recorder / spans ----

TEST(Trace, ToJsonNormalizesTimestampsAndValidates) {
  TraceRecorder rec;
  rec.add({"late", "cat", 1500, 20, 1, {{"n", 42}}});
  rec.add({"early \"quoted\"", "cat", 1000, 5, 0, {}});
  const auto json = rec.to_json();
  EXPECT_TRUE(tls::telemetry::json_syntax_valid(json)) << json;
  // Earliest event shifts to ts 0; the later one keeps the delta.
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":500"), std::string::npos);
  for (const char* key : {"\"name\"", "\"cat\"", "\"ph\":\"X\"", "\"pid\"",
                          "\"tid\"", "\"dur\"", "\"traceEvents\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(Trace, SpanRecordsOneCompleteEvent) {
  TraceRecorder rec;
  {
    tls::telemetry::Span span(rec, "work", "test", 3);
    span.arg("items", 9);
  }
  ASSERT_EQ(rec.events().size(), 1u);
  const auto& e = rec.events().front();
  EXPECT_EQ(e.name, "work");
  EXPECT_EQ(e.tid, 3u);
  ASSERT_EQ(e.args.size(), 1u);
  EXPECT_EQ(e.args[0].second, 9u);
}

// ---- the never-perturb contract on the full study pipeline ----

tls::study::StudyOptions tiny_options() {
  tls::study::StudyOptions o;
  o.connections_per_month = 600;
  o.full_catalog = false;
  o.window = {Month(2014, 6), Month(2015, 3)};
  o.shards_per_month = 4;
  return o;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Exports all 11 CSVs into a fresh directory, returns path -> bytes
/// keyed by file name (directory-independent).
std::map<std::string, std::string> export_bytes(tls::study::StudyOptions o,
                                                const std::string& tag) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("tls_tel_test_" + tag);
  std::filesystem::remove_all(dir);
  tls::study::LongitudinalStudy study(o);
  std::map<std::string, std::string> bytes;
  for (const auto& path : study.export_figures(dir.string())) {
    bytes[std::filesystem::path(path).filename().string()] = slurp(path);
  }
  std::filesystem::remove_all(dir);
  return bytes;
}

TEST(TelemetryNeverPerturbs,
     AllCsvExportsByteIdenticalAcrossThreadsAndFaultRates) {
  const auto base = tiny_options();
  for (const double fault_rate : {0.0, 0.10, 0.30}) {
    // Reference: serial, at this fault rate.
    auto ref_o = base;
    ref_o.faults.bit_flip = fault_rate;
    const auto suffix = std::to_string(static_cast<int>(fault_rate * 100));
    const auto want = export_bytes(ref_o, "ref" + suffix);
    ASSERT_EQ(want.size(), 11u);  // 10 figures + the active-scan series
    for (const unsigned threads : {1u, 8u}) {
      auto o = ref_o;
      o.threads = threads;
      const auto got =
          export_bytes(o, "t" + std::to_string(threads) + "f" + suffix);
      ASSERT_EQ(got.size(), want.size());
      for (const auto& [name, data] : want) {
        const auto it = got.find(name);
        ASSERT_NE(it, got.end()) << name;
        EXPECT_EQ(it->second, data) << name << " differs at threads="
                                    << threads << " faults=" << fault_rate;
      }
    }
  }
}

TEST(TelemetryNeverPerturbs, DeterministicDigestThreadCountIndependent) {
  auto o = tiny_options();
  o.faults.bit_flip = 0.10;  // exercise the fault counters too
  o.threads = 0;
  tls::study::LongitudinalStudy serial(o);
  o.threads = 8;
  tls::study::LongitudinalStudy parallel(o);
  const auto ds = tls::telemetry::deterministic_digest(serial.metrics());
  const auto dp = tls::telemetry::deterministic_digest(parallel.metrics());
  EXPECT_FALSE(ds.empty());
  EXPECT_EQ(ds, dp);
  // The deterministic subset must include the fault and path-split
  // counters (they are functions of the plan, not the schedule).
  EXPECT_NE(ds.find("tls_repro_faults_applied_total"), std::string::npos);
  EXPECT_NE(ds.find("tls_repro_notary_byte_path_total"), std::string::npos);
}

TEST(TelemetryStudy, MetricsAndTraceArePopulatedAndValid) {
  auto o = tiny_options();
  tls::study::LongitudinalStudy study(o);
  study.run();
  const auto& reg = study.metrics();
  ASSERT_FALSE(reg.metrics().empty());
  const auto* tasks = reg.find("tls_repro_pipeline_shard_tasks_total");
  ASSERT_NE(tasks, nullptr);
  // 10 months x 4 shards, every shard non-empty at 600 cpm.
  EXPECT_EQ(tasks->counter.value, 40u);
  const auto* gen = reg.find("tls_repro_pipeline_generate_us");
  ASSERT_NE(gen, nullptr);
  EXPECT_EQ(gen->histogram.count, 40u);
  EXPECT_TRUE(gen->timing);
  // Connections counter matches the monitor's own total.
  const auto* conns = reg.find("tls_repro_notary_connections_total");
  ASSERT_NE(conns, nullptr);
  EXPECT_EQ(conns->counter.value, study.monitor().total_connections());
  // The pool gauge counts the threads that ran tasks: the workers plus
  // the caller, which drains the grid too.
  const auto* running = reg.find("tls_repro_pool_threads_running");
  ASSERT_NE(running, nullptr);
  EXPECT_EQ(running->gauge.value, 1u);  // threads = 0: the caller alone

  // Spans: one task span per shard task, valid Chrome JSON.
  const auto& trace = study.trace();
  std::size_t task_spans = 0;
  for (const auto& e : trace.events()) {
    if (e.name == "shard_task") ++task_spans;
  }
  EXPECT_EQ(task_spans, 40u);
  EXPECT_TRUE(tls::telemetry::json_syntax_valid(trace.to_json()));

  // All three exports are well-formed.
  EXPECT_TRUE(
      tls::telemetry::json_syntax_valid(tls::telemetry::to_metrics_json(reg)));
  EXPECT_TRUE(
      tls::telemetry::lint_prometheus(tls::telemetry::to_prometheus(reg))
          .empty());

  o.threads = 2;
  tls::study::LongitudinalStudy pooled(o);
  pooled.run();
  running = pooled.metrics().find("tls_repro_pool_threads_running");
  ASSERT_NE(running, nullptr);
  EXPECT_EQ(running->gauge.value, 3u);
}

TEST(TelemetryStudy, FingerprintMemoCountersCloseAndAreThreadIndependent) {
  auto o = tiny_options();
  o.faults.bit_flip = 0.10;  // the byte path fingerprints too
  o.threads = 0;
  tls::study::LongitudinalStudy serial(o);
  serial.run();
  o.threads = 8;
  tls::study::LongitudinalStudy parallel(o);
  parallel.run();
  for (auto* study : {&serial, &parallel}) {
    const auto* lookups =
        study->metrics().find("tls_repro_notary_fp_memo_lookups_total");
    const auto* hits =
        study->metrics().find("tls_repro_notary_fp_memo_hits_total");
    ASSERT_NE(lookups, nullptr);
    ASSERT_NE(hits, nullptr);
    EXPECT_FALSE(lookups->timing);
    // One lookup per fingerprinted capture, no more and no fewer.
    EXPECT_EQ(lookups->counter.value,
              study->monitor().fingerprintable_connections());
    EXPECT_GT(hits->counter.value, 0u);
    EXPECT_LE(hits->counter.value, lookups->counter.value);
    const auto report = tls::telemetry::render_run_report(study->metrics());
    EXPECT_NE(report.find("fp memo: lookups " +
                          std::to_string(lookups->counter.value) +
                          ", hit ratio 0."),
              std::string::npos)
        << report;
  }
  EXPECT_EQ(tls::telemetry::deterministic_digest(serial.metrics()),
            tls::telemetry::deterministic_digest(parallel.metrics()));
}

TEST(TelemetryStudy, DefaultOptionsCollectMetricsAndTrace) {
  // No option turns telemetry on or off: a study built from default
  // options (at test volume) reports about itself.
  tls::study::StudyOptions o;
  o.connections_per_month = 50;
  o.full_catalog = false;
  o.window = {Month(2015, 1), Month(2015, 2)};
  tls::study::LongitudinalStudy study(o);
  EXPECT_FALSE(study.metrics().empty());
  EXPECT_FALSE(study.trace().empty());
}

TEST(TelemetryStudy, ScanProbeHistogramWithoutCheckpointing) {
  // The active-scan sweep reports one probe sample and one scan_probe
  // span per (month, segment), journal or not.
  const auto o = tiny_options();
  ASSERT_TRUE(o.checkpoint_dir.empty());
  tls::study::LongitudinalStudy study(o);
  const auto dir = std::filesystem::temp_directory_path() / "tls_tel_probe";
  std::filesystem::remove_all(dir);
  study.export_figures(dir.string());
  std::filesystem::remove_all(dir);
  const auto probes =
      static_cast<std::uint64_t>(tls::core::censys_window().size()) *
      study.servers().segments().size();
  ASSERT_GT(probes, 0u);
  const auto* hist = study.metrics().find("tls_repro_scan_probe_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->histogram.count, probes);
  std::uint64_t spans = 0;
  for (const auto& e : study.trace().events()) {
    if (e.name == "scan_probe") ++spans;
  }
  EXPECT_EQ(spans, probes);
}

// ---- resume: persisted stats stay exact, telemetry reports partial ----

TEST(TelemetryResume, CacheAndErrorStatsSurviveResumeAndPartialIsFlagged) {
  const auto ckpt =
      std::filesystem::temp_directory_path() / "tls_tel_resume_ckpt";
  std::filesystem::remove_all(ckpt);
  auto o = tiny_options();
  o.faults.bit_flip = 0.10;   // non-zero taxonomy totals
  o.fast_observe = false;
  o.checkpoint_dir = ckpt.string();

  std::uint64_t cold_errors = 0;
  {
    tls::study::LongitudinalStudy cold(o);
    cold.run();
    cold_errors = cold.monitor().errors().total();
    EXPECT_GT(cold_errors, 0u);
    EXPECT_FALSE(cold.recovery().telemetry_partial);
  }
  o.resume = true;
  {
    tls::study::LongitudinalStudy resumed(o);
    resumed.run();
    // Snapshot frames persist taxonomy state: the resumed monitor reports
    // exactly the cold run's numbers (the codec round-trips them).
    EXPECT_EQ(resumed.monitor().errors().total(), cold_errors);
    // The registry's own timings/fault counters are NOT frame-persisted:
    // a resumed run must say so.
    const auto report = resumed.recovery();
    EXPECT_TRUE(report.resumed);
    EXPECT_GT(report.tasks_skipped, 0u);
    EXPECT_TRUE(report.telemetry_partial);
    const auto table = tls::analysis::render_recovery_table(report);
    EXPECT_NE(table.find("partial since resume"), std::string::npos);
    const auto* flag = resumed.metrics().find("tls_repro_telemetry_partial");
    ASSERT_NE(flag, nullptr);
    EXPECT_EQ(flag->gauge.value, 1u);
  }
  std::filesystem::remove_all(ckpt);
}

// ---- thread pool accounting ----

TEST(ThreadPoolStats, CountsTasksAndGrids) {
  tls::core::ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.run(10, [&](std::size_t) { ran.fetch_add(1); });
  pool.run(5, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 15);
  const auto s = pool.stats();
  EXPECT_EQ(s.grids, 2u);
  EXPECT_EQ(s.tasks, 15u);
  EXPECT_GE(s.busy_us, 0u);

  tls::core::ThreadPool serial(0);
  serial.run(3, [](std::size_t) {});
  EXPECT_EQ(serial.stats().tasks, 3u);
  EXPECT_EQ(serial.stats().grids, 1u);
}

}  // namespace
