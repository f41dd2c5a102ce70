#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>

namespace bench {

tls::study::StudyOptions default_options() {
  tls::study::StudyOptions opts;
  opts.connections_per_month = 6000;
  if (const char* cpm = std::getenv("TLS_STUDY_CPM")) {
    opts.connections_per_month =
        static_cast<std::size_t>(std::strtoull(cpm, nullptr, 10));
  }
  if (const char* seed = std::getenv("TLS_STUDY_SEED")) {
    opts.seed = std::strtoull(seed, nullptr, 10);
  }
  if (const char* core = std::getenv("TLS_STUDY_CORE")) {
    opts.full_catalog = std::string(core) != "1";
  }
  return opts;
}

tls::study::LongitudinalStudy& shared_study() {
  static auto* study = new tls::study::LongitudinalStudy(default_options());
  return *study;
}

void print_chart(const tls::analysis::MonthlyChart& chart, bool csv) {
  std::fputs(tls::analysis::render_chart(chart).c_str(), stdout);
  if (csv) {
    std::fputs("\nCSV:\n", stdout);
    std::fputs(tls::analysis::to_csv(chart).c_str(), stdout);
  }
  std::fputs("\n", stdout);
}

void print_anchors(const std::string& experiment,
                   const std::vector<Anchor>& anchors) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"anchor", "paper", "measured"});
  for (const auto& a : anchors) rows.push_back({a.metric, a.paper, a.measured});
  std::printf("== %s: paper vs measured ==\n", experiment.c_str());
  std::fputs(tls::analysis::render_table(rows).c_str(), stdout);
  std::fputs("\n", stdout);
}

double series_at(const tls::analysis::MonthlyChart& chart,
                 std::size_t series_index, tls::core::Month m) {
  if (series_index >= chart.series.size() || !chart.range.contains(m)) {
    return 0.0;
  }
  return chart.series[series_index]
      .values[static_cast<std::size_t>(m - chart.range.begin_month)];
}

std::string fmt_pct(double v, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, v);
  return buf;
}

}  // namespace bench
