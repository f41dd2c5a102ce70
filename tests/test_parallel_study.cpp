// Determinism contract of the sharded parallel runner: at a fixed seed,
// every figure accessor and every exported CSV must be byte-identical
// whether the study ran serially (threads = 0) or on a pool (threads = 8),
// with and without fault injection. Plus the merge paths behind it:
// PassiveMonitor::absorb and the per-(month, segment) parallel scanner.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/shard.hpp"
#include "core/study.hpp"
#include "faults/injector.hpp"
#include "notary/monitor.hpp"
#include "population/traffic.hpp"
#include "scan/scanner.hpp"

namespace {

using tls::core::Month;
using tls::core::MonthRange;
using tls::notary::PassiveMonitor;

tls::study::StudyOptions small_options() {
  tls::study::StudyOptions o;
  o.connections_per_month = 1200;
  o.full_catalog = false;
  o.window = {Month(2014, 6), Month(2015, 9)};
  return o;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string chart_csv(tls::study::LongitudinalStudy& study) {
  std::string all;
  for (const auto& chart :
       {study.figure1_versions(), study.figure2_negotiated_classes(),
        study.figure3_advertised_classes(),
        study.figure4_fingerprint_support(),
        study.figure5_relative_positions(), study.figure6_rc4_advertised(),
        study.figure7_weak_advertised(), study.figure8_key_exchange(),
        study.figure9_aead_negotiated(), study.figure10_aead_advertised()}) {
    all += tls::analysis::to_csv(chart);
  }
  return all;
}

void expect_monitors_equal(const PassiveMonitor& a, const PassiveMonitor& b) {
  EXPECT_EQ(a.total_connections(), b.total_connections());
  EXPECT_EQ(a.fingerprintable_connections(), b.fingerprintable_connections());
  EXPECT_EQ(a.labeled_connections(), b.labeled_connections());
  EXPECT_EQ(a.errors().total(), b.errors().total());
  EXPECT_EQ(a.quarantine().total_pushed(), b.quarantine().total_pushed());
  ASSERT_EQ(a.months().size(), b.months().size());
  for (const auto& [m, sa] : a.months()) {
    const auto* sb = b.month(m);
    ASSERT_NE(sb, nullptr) << m.to_string();
    EXPECT_EQ(sa.total, sb->total) << m.to_string();
    EXPECT_EQ(sa.successful, sb->successful) << m.to_string();
    EXPECT_EQ(sa.failures, sb->failures) << m.to_string();
    EXPECT_EQ(sa.quarantined, sb->quarantined) << m.to_string();
    EXPECT_EQ(sa.parse_errors(), sb->parse_errors()) << m.to_string();
    EXPECT_EQ(sa.negotiated_version(), sb->negotiated_version()) << m.to_string();
    EXPECT_EQ(sa.fingerprints, sb->fingerprints) << m.to_string();
    // Bit-identical double accumulators, not just approximately equal.
    EXPECT_EQ(sa.pos_aead.sum, sb->pos_aead.sum) << m.to_string();
    EXPECT_EQ(sa.pos_rc4.n, sb->pos_rc4.n) << m.to_string();
  }
  const auto da = a.durations().summarize();
  const auto db = b.durations().summarize();
  EXPECT_EQ(da.fingerprint_count, db.fingerprint_count);
  EXPECT_EQ(da.total_connections, db.total_connections);
  EXPECT_EQ(da.median_days, db.median_days);
  EXPECT_EQ(da.mean_days, db.mean_days);
  EXPECT_EQ(da.single_day_count, db.single_day_count);
}

TEST(ParallelStudy, FiguresByteIdenticalAcrossThreadCounts) {
  auto opts = small_options();
  tls::study::LongitudinalStudy serial(opts);
  const auto serial_csv = chart_csv(serial);

  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    auto popts = opts;
    popts.threads = threads;
    tls::study::LongitudinalStudy parallel(popts);
    EXPECT_EQ(chart_csv(parallel), serial_csv);
    expect_monitors_equal(serial.monitor(), parallel.monitor());
  }
}

TEST(ParallelStudy, FiguresByteIdenticalUnderFaults) {
  auto opts = small_options();
  opts.faults = tls::faults::FaultConfig::uniform(0.10);
  tls::study::LongitudinalStudy serial(opts);
  const auto serial_csv = chart_csv(serial);

  // The injected faults actually bit: some capture was quarantined.
  std::uint64_t quarantined = 0;
  for (const auto& [m, s] : serial.monitor().months()) {
    quarantined += s.quarantined;
  }
  EXPECT_GT(quarantined, 0u);

  auto popts = opts;
  popts.threads = 8;
  tls::study::LongitudinalStudy parallel(popts);
  EXPECT_EQ(chart_csv(parallel), serial_csv);
  expect_monitors_equal(serial.monitor(), parallel.monitor());
}

TEST(ParallelStudy, FastObserveUnderFaultsByteIdentical) {
  // The struct-reuse fast path now extends to fault-injected runs: the
  // fault kind is rolled *before* serialization, so a kNone roll can skip
  // the byte path entirely without shifting the injector's RNG stream.
  // Contract: at a 10% fault rate, fast path on vs off is byte-identical.
  auto base = small_options();
  base.connections_per_month = 800;
  base.faults = tls::faults::FaultConfig::uniform(0.10);

  auto ref_opts = base;
  ref_opts.fast_observe = false;
  tls::study::LongitudinalStudy ref(ref_opts);
  const auto ref_csv = chart_csv(ref);

  // The faults actually bit in the reference run.
  std::uint64_t quarantined = 0;
  for (const auto& [m, s] : ref.monitor().months()) quarantined += s.quarantined;
  EXPECT_GT(quarantined, 0u);

  for (const unsigned threads : {0u, 8u}) {
    SCOPED_TRACE(threads);
    auto o = base;
    o.threads = threads;
    o.fast_observe = true;
    tls::study::LongitudinalStudy fast(o);
    EXPECT_EQ(chart_csv(fast), ref_csv);
    expect_monitors_equal(ref.monitor(), fast.monitor());
  }
}

TEST(ParallelStudy, CacheOnOffByteIdenticalAcrossThreadsAndFaults) {
  // The struct-reuse fast path is a pure accelerator: every figure CSV
  // must be byte-identical on the byte path and the fast path, at every
  // thread count, with and without fault injection. The reference run is
  // serial on the pure serialize→parse byte path. (The name predates the
  // removal of the byte-keyed observe cache this test also toggled.)
  for (const double fault_rate : {0.0, 0.10}) {
    SCOPED_TRACE(fault_rate);
    auto base = small_options();
    base.connections_per_month = 800;
    if (fault_rate > 0) {
      base.faults = tls::faults::FaultConfig::uniform(fault_rate);
    }
    auto ref_opts = base;
    ref_opts.fast_observe = false;
    tls::study::LongitudinalStudy ref(ref_opts);
    const auto ref_csv = chart_csv(ref);

    for (const unsigned threads : {0u, 1u, 8u}) {
      for (const bool fast : {false, true}) {
        SCOPED_TRACE(std::to_string(threads) +
                     (fast ? " fast-path" : " byte-path"));
        auto o = base;
        o.threads = threads;
        o.fast_observe = fast;
        tls::study::LongitudinalStudy study(o);
        EXPECT_EQ(chart_csv(study), ref_csv);
        expect_monitors_equal(ref.monitor(), study.monitor());
      }
    }

    // Default configuration (fast path, parallel) too.
    auto dflt_opts = base;
    dflt_opts.threads = 8;
    tls::study::LongitudinalStudy dflt(dflt_opts);
    EXPECT_EQ(chart_csv(dflt), ref_csv);
    expect_monitors_equal(ref.monitor(), dflt.monitor());
  }
}

TEST(ParallelStudy, ExportedFilesByteIdenticalCacheOnVsOff) {
  // Exported files, not just chart CSVs, are byte-identical on the byte
  // path (serial) and the fast path (parallel). The name predates the
  // removal of the byte-keyed observe cache this test used to toggle.
  namespace fs = std::filesystem;
  const fs::path base = fs::path(::testing::TempDir()) / "tls_cache_csv";
  fs::remove_all(base);

  auto opts = small_options();
  opts.connections_per_month = 600;
  auto off_opts = opts;
  off_opts.fast_observe = false;
  tls::study::LongitudinalStudy off(off_opts);
  const auto off_files = off.export_figures((base / "off").string());

  auto on_opts = opts;
  on_opts.fast_observe = true;
  on_opts.threads = 8;
  tls::study::LongitudinalStudy on(on_opts);
  const auto on_files = on.export_figures((base / "on").string());

  ASSERT_EQ(off_files.size(), on_files.size());
  for (std::size_t i = 0; i < off_files.size(); ++i) {
    const auto expected = slurp(off_files[i]);
    ASSERT_FALSE(expected.empty()) << off_files[i];
    EXPECT_EQ(slurp(on_files[i]), expected) << on_files[i];
  }
  fs::remove_all(base);
}

TEST(ParallelStudy, GenCacheOnOffByteIdenticalAcrossThreadsAndFaults) {
  // The producer-side GenCache (hello wire templates + negotiation memo)
  // must be a pure accelerator: identical RNG stream, identical events,
  // identical figures — at every thread count, with and without fault
  // injection. Reference: gen-cache off, serial.
  for (const double fault_rate : {0.0, 0.10}) {
    SCOPED_TRACE(fault_rate);
    auto base = small_options();
    base.connections_per_month = 800;
    if (fault_rate > 0) {
      base.faults = tls::faults::FaultConfig::uniform(fault_rate);
    }
    auto ref_opts = base;
    ref_opts.gen_cache = false;
    tls::study::LongitudinalStudy ref(ref_opts);
    const auto ref_csv = chart_csv(ref);

    for (const unsigned threads : {0u, 1u, 8u}) {
      for (const bool gen_on : {false, true}) {
        SCOPED_TRACE(std::to_string(threads) +
                     (gen_on ? " gen-cache-on" : " gen-cache-off"));
        auto o = base;
        o.threads = threads;
        o.gen_cache = gen_on;
        tls::study::LongitudinalStudy study(o);
        EXPECT_EQ(chart_csv(study), ref_csv);
        expect_monitors_equal(ref.monitor(), study.monitor());
      }
    }
  }
}

TEST(ParallelStudy, ExportedFilesByteIdenticalGenCacheOnVsOff) {
  // Full 11-file export matrix: gen-cache on at threads {0, 1, 8} against
  // a gen-cache-off serial reference, every file byte-identical.
  namespace fs = std::filesystem;
  const fs::path base = fs::path(::testing::TempDir()) / "tls_gencache_csv";
  fs::remove_all(base);

  auto opts = small_options();
  opts.connections_per_month = 600;
  auto off_opts = opts;
  off_opts.gen_cache = false;
  tls::study::LongitudinalStudy off(off_opts);
  const auto off_files = off.export_figures((base / "off").string());
  ASSERT_EQ(off_files.size(), 11u);  // 10 figures + the active-scan series

  for (const unsigned threads : {0u, 1u, 8u}) {
    SCOPED_TRACE(threads);
    auto on_opts = opts;
    on_opts.gen_cache = true;
    on_opts.threads = threads;
    tls::study::LongitudinalStudy on(on_opts);
    const auto on_files =
        on.export_figures((base / ("on" + std::to_string(threads))).string());
    ASSERT_EQ(on_files.size(), off_files.size());
    for (std::size_t i = 0; i < off_files.size(); ++i) {
      const auto expected = slurp(off_files[i]);
      ASSERT_FALSE(expected.empty()) << off_files[i];
      EXPECT_EQ(slurp(on_files[i]), expected) << on_files[i];
    }
  }
  fs::remove_all(base);
}

TEST(ParallelStudy, ExportedCsvFilesByteIdenticalAndRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path base = fs::path(::testing::TempDir()) / "tls_parallel_csv";
  fs::remove_all(base);

  auto opts = small_options();
  opts.connections_per_month = 600;
  tls::study::LongitudinalStudy serial(opts);
  const auto serial_files = serial.export_figures((base / "serial").string());

  auto popts = opts;
  popts.threads = 8;
  tls::study::LongitudinalStudy parallel(popts);
  const auto parallel_files =
      parallel.export_figures((base / "parallel").string());

  ASSERT_EQ(serial_files.size(), parallel_files.size());
  ASSERT_EQ(serial_files.size(), 11u);  // 10 figures + censys scans
  for (std::size_t i = 0; i < serial_files.size(); ++i) {
    const auto expected = slurp(serial_files[i]);
    ASSERT_FALSE(expected.empty()) << serial_files[i];
    EXPECT_EQ(slurp(parallel_files[i]), expected) << parallel_files[i];

    // Round-trip: every exported file parses back, rectangular, and every
    // value survives text -> double -> text unchanged (max_digits10).
    const auto rows = tls::analysis::parse_csv(expected);
    ASSERT_GT(rows.size(), 1u) << serial_files[i];
    for (const auto& row : rows) {
      EXPECT_EQ(row.size(), rows.front().size()) << serial_files[i];
    }
    for (std::size_t r = 1; r < rows.size(); ++r) {
      for (std::size_t c = 1; c < rows[r].size(); ++c) {
        const double value = std::stod(rows[r][c]);
        EXPECT_EQ(tls::analysis::csv_double(value), rows[r][c])
            << serial_files[i] << " row " << r;
      }
    }
  }
  fs::remove_all(base);
}

TEST(ParallelStudy, ScannerParallelSweepMatchesSerial) {
  const auto servers = tls::servers::ServerPopulation::standard();
  tls::scan::ScanPolicy policy;
  policy.network = tls::faults::NetworkProfile::lossy(0.3);
  const tls::scan::ActiveScanner scanner(servers, policy);
  const MonthRange range{Month(2015, 8), Month(2016, 7)};

  const auto serial = scanner.scan_range(range);
  tls::core::ThreadPool pool(6);
  const auto parallel = scanner.scan_range(range, pool);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial[i];
    const auto& b = parallel[i];
    EXPECT_EQ(a.month, b.month);
    // Exact equality on every double: the parallel fold must reproduce
    // the serial accumulation order bit for bit.
    EXPECT_EQ(a.ssl3_support, b.ssl3_support);
    EXPECT_EQ(a.export_support, b.export_support);
    EXPECT_EQ(a.chooses_rc4, b.chooses_rc4);
    EXPECT_EQ(a.chooses_cbc, b.chooses_cbc);
    EXPECT_EQ(a.chooses_aead, b.chooses_aead);
    EXPECT_EQ(a.chooses_3des, b.chooses_3des);
    EXPECT_EQ(a.rc4_support, b.rc4_support);
    EXPECT_EQ(a.rc4_only, b.rc4_only);
    EXPECT_EQ(a.heartbeat_support, b.heartbeat_support);
    EXPECT_EQ(a.heartbleed_vulnerable, b.heartbleed_vulnerable);
    EXPECT_EQ(a.tls13_support, b.tls13_support);
    EXPECT_EQ(a.scanned, b.scanned);
    EXPECT_EQ(a.unreachable, b.unreachable);
    EXPECT_EQ(a.probe_attempts, b.probe_attempts);
    EXPECT_EQ(a.probe_retries, b.probe_retries);
    EXPECT_EQ(a.probes_abandoned, b.probes_abandoned);
    EXPECT_NEAR(b.scanned + b.unreachable, 1.0, 1e-9);
  }
}

// ---- merge-path unit tests ----

/// Feeds `per_month` connections of [begin, end] into `monitor`.
void feed(PassiveMonitor& monitor, MonthRange window, std::size_t per_month,
          std::uint64_t seed) {
  const auto catalog = tls::clients::Catalog::core_only();
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);
  tls::population::TrafficGenerator gen(market, servers, seed);
  gen.generate_range(window, per_month,
                     [&](const tls::population::ConnectionEvent& ev) {
                       monitor.observe(ev);
                     });
}

TEST(MonitorAbsorb, MonthDisjointShardsEqualSerialRun) {
  // Two shards covering disjoint month spans: absorbing them must equal
  // one monitor that saw both streams, exactly — including the
  // floating-point position accumulators, which live per month.
  const MonthRange first{Month(2015, 1), Month(2015, 3)};
  const MonthRange second{Month(2015, 4), Month(2015, 6)};

  PassiveMonitor combined;
  feed(combined, first, 800, 11);
  feed(combined, second, 800, 22);

  PassiveMonitor shard_a, shard_b;
  feed(shard_a, first, 800, 11);
  feed(shard_b, second, 800, 22);
  PassiveMonitor merged;
  merged.absorb(shard_a);
  merged.absorb(shard_b);

  expect_monitors_equal(combined, merged);
  for (const auto& [m, s] : combined.months()) {
    const auto* other = merged.month(m);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(s.pos_aead.sum, other->pos_aead.sum) << m.to_string();
    EXPECT_EQ(s.pos_cbc.sum, other->pos_cbc.sum) << m.to_string();
    EXPECT_EQ(s.adv_rc4, other->adv_rc4) << m.to_string();
    EXPECT_EQ(s.alerts(), other->alerts()) << m.to_string();
    EXPECT_EQ(s.negotiated_group(), other->negotiated_group()) << m.to_string();
  }
}

TEST(MonitorAbsorb, CountersFoldAcrossOverlappingMonths) {
  // Same month range in both shards: every counter must add.
  const MonthRange window{Month(2016, 1), Month(2016, 2)};
  PassiveMonitor a, b;
  feed(a, window, 500, 5);
  feed(b, window, 700, 6);
  const std::uint64_t total_a = a.total_connections();
  const std::uint64_t total_b = b.total_connections();
  const auto fp_a = a.durations().summarize().fingerprint_count;

  a.absorb(b);
  EXPECT_EQ(a.total_connections(), total_a + total_b);
  for (const auto& [m, s] : a.months()) {
    EXPECT_EQ(s.total, s.successful + s.failures + s.quarantined)
        << m.to_string();
  }
  // Fingerprint sets union (>= the larger side, <= the sum).
  const auto fp_merged = a.durations().summarize().fingerprint_count;
  EXPECT_GE(fp_merged, fp_a);
}

TEST(MonitorAbsorb, QuarantineRingMergeIsBoundedAndAccounted) {
  const MonthRange window{Month(2015, 1), Month(2015, 2)};
  PassiveMonitor a, b;
  tls::faults::FaultInjector inj_a(tls::faults::FaultConfig::bytes_only(0.5),
                                   1);
  tls::faults::FaultInjector inj_b(tls::faults::FaultConfig::bytes_only(0.5),
                                   2);
  a.set_fault_injector(&inj_a);
  b.set_fault_injector(&inj_b);
  feed(a, window, 800, 33);
  feed(b, window, 800, 44);
  a.set_fault_injector(nullptr);
  b.set_fault_injector(nullptr);

  const auto pushed_a = a.quarantine().total_pushed();
  const auto pushed_b = b.quarantine().total_pushed();
  const auto errors_a = a.errors().total();
  const auto errors_b = b.errors().total();
  ASSERT_GT(pushed_a, 0u);
  ASSERT_GT(pushed_b, 0u);

  a.absorb(b);
  EXPECT_EQ(a.quarantine().total_pushed(), pushed_a + pushed_b);
  EXPECT_LE(a.quarantine().size(), a.quarantine().capacity());
  EXPECT_EQ(a.errors().total(), errors_a + errors_b);
}

TEST(DurationMerge, MinFirstMaxLastSumConnections) {
  tls::fp::DurationTracker a, b;
  a.record("fp1", tls::core::Date(2015, 3, 10), 2);
  a.record("only_a", tls::core::Date(2015, 5, 1));
  b.record("fp1", tls::core::Date(2014, 12, 25), 3);
  b.record("fp1", tls::core::Date(2016, 1, 2));
  b.record("only_b", tls::core::Date(2015, 7, 7));

  a.merge(b);
  ASSERT_EQ(a.size(), 3u);
  const auto& lt = a.lifetimes().at("fp1");
  EXPECT_EQ(lt.first_day, tls::core::Date(2014, 12, 25).to_days());
  EXPECT_EQ(lt.last_day, tls::core::Date(2016, 1, 2).to_days());
  EXPECT_EQ(lt.connections, 6u);
  EXPECT_EQ(a.lifetimes().at("only_b").connections, 1u);
}

}  // namespace
