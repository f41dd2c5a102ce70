// Rendering utilities shared by benches and examples: monthly multi-series
// ASCII charts (the terminal stand-ins for the paper's figures) and aligned
// text tables (for its tables).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "tlscore/dates.hpp"

namespace tls::analysis {

struct Series {
  std::string name;
  std::vector<double> values;  // one per month of the chart's range
};

struct MonthlyChart {
  std::string title;
  tls::core::MonthRange range{tls::core::Month(2012, 1),
                              tls::core::Month(2018, 4)};
  std::vector<Series> series;
  /// Vertical marker positions (e.g. attack dates) with one-char labels.
  std::vector<std::pair<tls::core::Month, char>> markers;
  int height = 18;
  double y_max = 100.0;  // <= 0 -> auto-scale
};

/// Renders a chart like:
///   75 |  AA
///   50 | A  BB..
/// with one letter per series and a month axis.
std::string render_chart(const MonthlyChart& chart);

/// Aligned text table; first row is the header.
std::string render_table(const std::vector<std::vector<std::string>>& rows);

/// One month of ingest loss accounting for render_loss_table. Deliberately a
/// plain struct (no notary/wire dependency): `by_code` follows the
/// tls::wire::ParseErrorCode order — truncated, trailing, bad-length,
/// bad-value, unsupported.
struct LossRow {
  std::string month;
  std::uint64_t total = 0;        // successful + failures + quarantined
  std::uint64_t successful = 0;
  std::uint64_t failures = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t one_sided = 0;    // captures salvaged from a single direction
  std::array<std::uint64_t, 5> by_code{};
};

/// Per-month malformed/quarantine summary:
///   month  total  ok  failed  quar  quar%  1-sided  trunc  trail  ...
/// Months with nothing quarantined, no one-sided captures, and no parse
/// errors are collapsed into a single "(clean)" count line to keep long
/// windows readable. Returns "" for empty input.
std::string render_loss_table(const std::vector<LossRow>& rows);

/// What a checkpoint-journal replay found and did. Like LossRow this is a
/// plain struct with no dependency on the journal that fills it, so the
/// study layer can produce one and this layer can render it.
struct RecoveryReport {
  bool resumed = false;  // a usable manifest was found and accepted
  std::uint64_t frames_replayed = 0;   // verified and absorbed
  std::uint64_t frames_corrupt = 0;    // checksum/decode failure
  std::uint64_t frames_mismatched = 0; // wrong options digest or version
  std::uint64_t frames_duplicate = 0;  // same (kind, month, slot) twice
  std::uint64_t tasks_skipped = 0;     // satisfied from the journal
  std::uint64_t tasks_recomputed = 0;  // run (fresh, or frame unusable)
  // Group-commit journal accounting.
  std::uint64_t groups_committed = 0;  // checksummed groups written/replayed
  std::uint64_t groups_torn = 0;       // segments with a torn tail
  std::uint64_t torn_bytes = 0;        // bytes scan-truncated off tails
  std::uint64_t io_retries = 0;        // transient IO errors recovered
  std::uint64_t io_errors = 0;         // terminal IO failures (per-stage)
  /// Frames of groups the writer could not make durable even on a retry;
  /// their tasks are recomputed on the next resume.
  std::uint64_t frames_dropped = 0;
  /// Telemetry covers only the recomputed slice of this run: checkpoint
  /// frames carry monitor state but not the metrics registry, so after a
  /// resume the phase timings / fault-trigger counters describe just the
  /// tasks that actually re-ran. (Error-taxonomy stats ARE
  /// frame-persisted and stay exact across resume.)
  bool telemetry_partial = false;
  /// Quarantine sidecar paths of every rejected frame, in replay order.
  std::vector<std::string> quarantined;
};

/// Renders the replay summary as an aligned two-column table followed by
/// the quarantined-frame paths (if any), one per line.
std::string render_recovery_table(const RecoveryReport& report);

/// Formats a double as a percent with one decimal ("12.3%").
std::string pct(double value_0_to_100);

/// RFC 4180 field escaping: fields containing a comma, double quote, CR,
/// or LF are wrapped in double quotes with embedded quotes doubled; all
/// other fields pass through unchanged.
std::string csv_escape(const std::string& field);

/// Formats a double with max_digits10 significant digits — enough that
/// parsing the text back yields the identical double (round-trippable),
/// while integral values still print without a trailing ".0".
std::string csv_double(double value);

/// Writes chart series as CSV ("month,series1,series2,..."). Series names
/// and month labels are RFC 4180-escaped; values round-trip exactly.
std::string to_csv(const MonthlyChart& chart);

/// Parses RFC 4180 CSV text (quoted fields, doubled quotes, embedded
/// newlines in quoted fields) into rows of unescaped fields. Accepts both
/// "\n" and "\r\n" row terminators; a trailing newline does not produce an
/// empty final row.
std::vector<std::vector<std::string>> parse_csv(const std::string& text);

}  // namespace tls::analysis
