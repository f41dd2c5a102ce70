// Shared helpers for the per-figure/per-table bench binaries. Each binary
// regenerates one paper artifact and prints paper-reported anchor values
// next to the measured ones, so EXPERIMENTS.md can be refreshed by running
// `for b in build/bench/*; do $b; done`.
//
// Environment knobs:
//   TLS_STUDY_CPM   connections per month (default 6000)
//   TLS_STUDY_SEED  simulation seed (default 42)
//   TLS_STUDY_CORE  "1" -> core-only catalog (faster, fewer fingerprints)
#pragma once

#include <string>
#include <vector>

#include "core/study.hpp"

namespace bench {

tls::study::StudyOptions default_options();

/// One study per process, built lazily with default_options().
tls::study::LongitudinalStudy& shared_study();

/// Prints an ASCII chart plus its CSV block.
void print_chart(const tls::analysis::MonthlyChart& chart, bool csv = false);

struct Anchor {
  std::string metric;
  std::string paper;
  std::string measured;
};

/// Prints the paper-vs-measured anchor table for one experiment.
void print_anchors(const std::string& experiment,
                   const std::vector<Anchor>& anchors);

/// Value of `series` at month m within `range`; 0 when out of range.
double series_at(const tls::analysis::MonthlyChart& chart,
                 std::size_t series_index, tls::core::Month m);

std::string fmt_pct(double value_0_to_100, int decimals = 1);

}  // namespace bench
