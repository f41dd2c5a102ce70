#include "analysis/render.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace tls::analysis {

using tls::core::Month;

std::string pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", v);
  return buf;
}

std::string render_chart(const MonthlyChart& chart) {
  const int n_months = chart.range.size();
  if (n_months <= 0) throw std::invalid_argument("empty chart range");
  for (const auto& s : chart.series) {
    if (static_cast<int>(s.values.size()) != n_months) {
      throw std::invalid_argument("series '" + s.name +
                                  "' length != month range");
    }
  }

  double y_max = chart.y_max;
  if (y_max <= 0) {
    y_max = 1;
    for (const auto& s : chart.series) {
      for (const auto v : s.values) y_max = std::max(y_max, v);
    }
    y_max *= 1.05;
  }

  const int h = std::max(4, chart.height);
  std::vector<std::string> grid(
      static_cast<std::size_t>(h),
      std::string(static_cast<std::size_t>(n_months), ' '));

  // Markers first so data overwrites them.
  for (const auto& [m, c] : chart.markers) {
    if (!chart.range.contains(m)) continue;
    const int x = m - chart.range.begin_month;
    for (auto& row : grid) row[static_cast<std::size_t>(x)] = c;
  }

  for (std::size_t si = 0; si < chart.series.size(); ++si) {
    const char glyph = static_cast<char>('A' + (si % 26));
    for (int x = 0; x < n_months; ++x) {
      const double v = chart.series[si].values[static_cast<std::size_t>(x)];
      int y = static_cast<int>(std::lround(v / y_max * (h - 1)));
      y = std::clamp(y, 0, h - 1);
      grid[static_cast<std::size_t>(h - 1 - y)][static_cast<std::size_t>(x)] =
          glyph;
    }
  }

  std::ostringstream out;
  out << chart.title << "\n";
  for (int r = 0; r < h; ++r) {
    const double level = y_max * (h - 1 - r) / (h - 1);
    char label[16];
    std::snprintf(label, sizeof(label), "%5.0f |", level);
    out << label << grid[static_cast<std::size_t>(r)] << "\n";
  }
  out << "      +" << std::string(static_cast<std::size_t>(n_months), '-')
      << "\n       ";
  // Year ticks under every January.
  std::string axis(static_cast<std::size_t>(n_months), ' ');
  for (int x = 0; x < n_months; ++x) {
    const Month m = chart.range.begin_month + x;
    if (m.month() == 1) {
      const std::string y = std::to_string(m.year());
      for (std::size_t i = 0; i < y.size() && x + static_cast<int>(i) < n_months; ++i) {
        axis[static_cast<std::size_t>(x) + i] = y[i];
      }
    }
  }
  out << axis << "\n";
  for (std::size_t si = 0; si < chart.series.size(); ++si) {
    out << "       " << static_cast<char>('A' + (si % 26)) << " = "
        << chart.series[si].name << "\n";
  }
  if (!chart.markers.empty()) {
    out << "       markers:";
    for (const auto& [m, c] : chart.markers) {
      out << " " << c << "=" << m.to_string();
    }
    out << "\n";
  }
  return out.str();
}

std::string render_table(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return "";
  std::vector<std::size_t> widths;
  for (const auto& row : rows) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::ostringstream out;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t i = 0; i < rows[r].size(); ++i) {
      out << rows[r][i]
          << std::string(widths[i] - rows[r][i].size() + 2, ' ');
    }
    out << "\n";
    if (r == 0) {
      std::size_t total = 0;
      for (const auto w : widths) total += w + 2;
      out << std::string(total, '-') << "\n";
    }
  }
  return out.str();
}

std::string render_loss_table(const std::vector<LossRow>& rows) {
  if (rows.empty()) return "";
  static const char* kCodeNames[] = {"trunc", "trail", "bad-len", "bad-val",
                                     "unsup"};
  std::vector<std::vector<std::string>> table;
  table.push_back({"month", "total", "ok", "failed", "quar", "quar%",
                   "1-sided", kCodeNames[0], kCodeNames[1], kCodeNames[2],
                   kCodeNames[3], kCodeNames[4]});
  std::size_t clean = 0;
  const auto is_clean = [](const LossRow& r) {
    if (r.quarantined != 0 || r.one_sided != 0) return false;
    for (const auto c : r.by_code) {
      if (c != 0) return false;
    }
    return true;
  };
  for (const auto& r : rows) {
    if (is_clean(r)) {
      ++clean;
      continue;
    }
    const double quar_pct =
        r.total == 0 ? 0.0
                     : 100.0 * static_cast<double>(r.quarantined) /
                           static_cast<double>(r.total);
    std::vector<std::string> row{
        r.month,
        std::to_string(r.total),
        std::to_string(r.successful),
        std::to_string(r.failures),
        std::to_string(r.quarantined),
        pct(quar_pct),
        std::to_string(r.one_sided)};
    for (const auto c : r.by_code) row.push_back(std::to_string(c));
    table.push_back(std::move(row));
  }
  std::ostringstream out;
  out << render_table(table);
  if (clean > 0) {
    out << "(clean) " << clean << " month" << (clean == 1 ? "" : "s")
        << " with no losses\n";
  }
  return out.str();
}

std::string render_recovery_table(const RecoveryReport& report) {
  std::vector<std::vector<std::string>> table;
  table.push_back({"recovery", "count"});
  table.push_back({"resumed", report.resumed ? "yes" : "no"});
  table.push_back({"frames replayed", std::to_string(report.frames_replayed)});
  table.push_back({"frames corrupt", std::to_string(report.frames_corrupt)});
  table.push_back(
      {"frames mismatched", std::to_string(report.frames_mismatched)});
  table.push_back(
      {"frames duplicate", std::to_string(report.frames_duplicate)});
  table.push_back({"tasks skipped", std::to_string(report.tasks_skipped)});
  table.push_back(
      {"tasks recomputed", std::to_string(report.tasks_recomputed)});
  table.push_back(
      {"groups committed", std::to_string(report.groups_committed)});
  table.push_back({"groups torn", std::to_string(report.groups_torn)});
  table.push_back({"torn bytes", std::to_string(report.torn_bytes)});
  table.push_back({"frames dropped", std::to_string(report.frames_dropped)});
  if (report.io_retries != 0 || report.io_errors != 0) {
    table.push_back({"io retries", std::to_string(report.io_retries)});
    table.push_back({"io errors", std::to_string(report.io_errors)});
  }
  if (report.telemetry_partial) {
    table.push_back({"telemetry", "partial since resume"});
  }
  std::ostringstream out;
  out << render_table(table);
  if (!report.quarantined.empty()) {
    out << "quarantined frames:\n";
    for (const auto& path : report.quarantined) out << "  " << path << "\n";
  }
  return out.str();
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string csv_double(double value) {
  // %.17g (max_digits10) is the shortest fixed precision guaranteeing
  // text -> double round-trips; %g also drops trailing zeros, so integral
  // values keep printing as "0" / "100".
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string to_csv(const MonthlyChart& chart) {
  std::ostringstream out;
  out << "month";
  for (const auto& s : chart.series) out << "," << csv_escape(s.name);
  out << "\n";
  for (int x = 0; x < chart.range.size(); ++x) {
    out << csv_escape((chart.range.begin_month + x).to_string());
    for (const auto& s : chart.series) {
      out << "," << csv_double(s.values[static_cast<std::size_t>(x)]);
    }
    out << "\n";
  }
  return out.str();
}

std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool quoted = false;
  bool field_started = false;  // row has content pending a terminator
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        quoted = true;
        field_started = true;
        break;
      case ',':
        row.push_back(std::move(field));
        field.clear();
        field_started = true;
        break;
      case '\r':
        if (i + 1 < text.size() && text[i + 1] == '\n') ++i;
        [[fallthrough]];
      case '\n':
        row.push_back(std::move(field));
        field.clear();
        rows.push_back(std::move(row));
        row.clear();
        field_started = false;
        break;
      default:
        field.push_back(c);
        field_started = true;
        break;
    }
  }
  if (field_started || !row.empty()) {
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace tls::analysis
