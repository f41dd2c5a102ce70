// Self-tests of the benchmark's own helpers: the percentile rules, the FIFO
// credit-ack matcher, the self-time computation, the seed argument and the
// seeded record refresh. Exits non-zero on any failure.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "pool.hpp"
#include "probes.hpp"
#include "reference.hpp"

namespace {

int checks = 0;
int failures = 0;

void check(bool ok, const std::string& what) {
  ++checks;
  if (ok) return;
  ++failures;
  std::cerr << "selftest: FAILED: " << what << "\n";
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  using perfbench::percentile;
  using perfbench::tail_quantile;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  check(near(percentile(v, 0.5), 500), "p50 of 1..1000 is 500");
  check(near(percentile(v, 0.99), 990), "p99 of 1..1000 is 990");
  check(near(percentile(v, 1.0), 1000), "p100 is the maximum");
  check(tail_quantile(1000) == 0.99, "1000 samples support p99");
  check(tail_quantile(999) == 0.95, "999 samples fall back to p95");
  check(tail_quantile(20) == 0.50, "20 samples support only p50");
  check(tail_quantile(19) == 1.0, "19 samples report the maximum");
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  const auto s = perfbench::summarize(shuffled);
  check(s.n == 5 && near(s.p50, 3) && near(s.tail, 5) && s.tail_q == 1.0,
        "summarize sorts and reports the maximum for few samples");
}

void test_ack_matcher() {
  perfbench::AckMatcher m;
  std::vector<std::vector<double>> lat;
  m.sent(100, 0);
  m.sent(200, perfbench::AckMatcher::kUnmeasured);
  m.sent(300, 1);
  check(m.ack(2, 1100, lat) == 2, "two credits resolve the two oldest sends");
  check(lat.size() == 1 && lat[0].size() == 1 && near(lat[0][0], 1.0),
        "only measured sends are sampled, from their due time");
  check(m.in_flight() == 1, "one send left in flight");
  check(m.ack(5, 2300, lat) == 1, "extra credits resolve what is in flight");
  check(lat.size() == 2 && lat[1].size() == 1 && near(lat[1][0], 2.0),
        "FIFO: the third send is last, filed under its own window");
  check(m.excess_credits() == 4, "credits beyond the in-flight count are booked");
}

void test_best_quartile() {
  const std::vector<double> v = {10, 1, 7, 4, 8, 2, 9, 3, 6, 5};
  check(near(perfbench::best_quartile(v, true), 8), "rates: 75th percentile");
  check(near(perfbench::best_quartile(v, false), 3), "times: 25th percentile");
}

void test_histogram_quantile() {
  tls::telemetry::Histogram h;
  h.bounds = {10, 20, 40};
  h.counts = {0, 10, 0, 0};
  h.count = 10;
  h.max = 19;
  check(near(perfbench::histogram_quantile(h, 0.5), 15),
        "histogram quantiles interpolate inside the bucket");
  check(near(perfbench::histogram_quantile(h, 1.0), 20),
        "the top of a bucket is its upper bound");
}

void test_self_time() {
  using perfbench::SpanRecord;
  std::vector<SpanRecord> spans = {
      {1, 0, "parent", 0, 100, 0, 0},
      {2, 1, "child", 10, 30, 0, 0},
      {3, 1, "child", 20, 50, 0, 0},   // overlaps the first child
      {4, 1, "child", 90, 120, 0, 0},  // runs past the parent's end
      {5, 2, "grandchild", 12, 18, 0, 0},
  };
  const auto self = perfbench::self_times(spans);
  check(near(self.at(1), 50), "parent self = 100 - union(10..50, 90..100)");
  check(near(self.at(2), 14), "child self excludes its own child only");
  check(near(self.at(5), 6), "a leaf's self time is its duration");
  const auto layers = perfbench::layer_times(spans);
  check(layers.at("child").count == 3 &&
            near(layers.at("child").total_ns, 20 + 30 + 30),
        "layer totals sum the spans of one name");
}

void test_seed_argument() {
  perfbench::Args args;
  std::string error;
  const char* good[] = {"perfbench", "--workload", "tap",    "--seed",
                        "7",         "--seconds",  "2.5",    "--trace",
                        "1"};
  check(perfbench::parse_args(9, good, args, error) && args.seed == 7 &&
            args.workload == "tap" && near(args.seconds, 2.5) && args.trace,
        "a full command line parses");
  const char* no_seed[] = {"perfbench", "--workload", "tap"};
  check(!perfbench::parse_args(3, no_seed, args, error), "--seed is required");
  for (const char* bad : {"x", "-1", "7x", ""}) {
    const char* argv[] = {"perfbench", "--workload", "tap", "--seed", bad};
    check(!perfbench::parse_args(5, argv, args, error),
          std::string("--seed rejects '") + bad + "'");
  }
  const char* bad_trace[] = {"perfbench", "--workload", "tap", "--seed", "1",
                             "--trace", "2"};
  check(!perfbench::parse_args(7, bad_trace, args, error),
        "--trace takes only 0 or 1");
}

std::vector<std::uint8_t> client_record(std::uint8_t sid_len) {
  std::vector<std::uint8_t> r(44 + sid_len + 8, 0xAB);
  r[0] = 0x16;
  r[5] = 0x01;
  r[43] = sid_len;
  return r;
}

void test_record_refresh() {
  auto a = client_record(32), b = client_record(32), c = client_record(32);
  tls::core::Rng r1(11), r2(11), r3(12);
  check(perfbench::refresh_client_record(a.data(), a.size(), r1) &&
            perfbench::refresh_client_record(b.data(), b.size(), r2) &&
            perfbench::refresh_client_record(c.data(), c.size(), r3),
        "a ClientHello record is patched");
  check(a == b, "the same seed gives the same record");
  check(a != c, "another seed gives another record");
  const auto fresh = client_record(32);
  check(!std::equal(a.begin() + 11, a.begin() + 43, fresh.begin() + 11),
        "the random is re-drawn");
  check(!std::equal(a.begin() + 44, a.begin() + 76, fresh.begin() + 44),
        "the session id is re-drawn");
  check(std::equal(a.begin() + 76, a.end(), fresh.begin() + 76) &&
            a[43] == 32,
        "bytes past the session id are untouched");
  auto server = client_record(0);
  check(!perfbench::refresh_server_record(server.data(), server.size(), r1) &&
            server == client_record(0),
        "a record of another handshake type is left alone");
  check(perfbench::distinct_ratio({1, 2, 2, 3}) == 0.75,
        "distinct ratio counts repeats");
}

void test_reference_scaling() {
  using perfbench::kReferenceNominalNs;
  check(near(perfbench::scale_rate(100, kReferenceNominalNs), 100) &&
            near(perfbench::scale_time(10, kReferenceNominalNs), 10),
        "a host at the nominal speed is not scaled");
  check(near(perfbench::scale_rate(100, 2 * kReferenceNominalNs), 200) &&
            near(perfbench::scale_time(10, 2 * kReferenceNominalNs), 5),
        "a host half as fast gets its rates doubled and its times halved");
  check(perfbench::reference_ns(3) > 0 &&
            perfbench::reference_parallel_ns(2, 1) > 0,
        "the reference kernel takes time");
}

}  // namespace

int main() {
  test_percentiles();
  test_ack_matcher();
  test_best_quartile();
  test_histogram_quantile();
  test_self_time();
  test_seed_argument();
  test_record_refresh();
  test_reference_scaling();
  std::cout << "selftest: " << checks << " checks, " << failures
            << " failures\n";
  return failures == 0 ? 0 : 1;
}
