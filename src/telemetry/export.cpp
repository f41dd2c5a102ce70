#include "telemetry/export.hpp"

#include <cctype>
#include <sstream>

#include "analysis/render.hpp"

namespace tls::telemetry {

namespace {

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "counter";
}

void append_json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

std::uint64_t metric_scalar(const Metric& m) {
  return m.kind == MetricKind::kCounter ? m.counter.value : m.gauge.value;
}

/// Unit inferred from the naming convention's trailing component (empty
/// when the name carries no unit). Drives the OpenMetrics-compatible
/// `# UNIT` metadata line; samples themselves stay exemplar-free plain
/// integers, so Prometheus 0.0.4 scrapers are unaffected.
std::string_view unit_suffix(std::string_view name) {
  const auto ends_with = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  if (ends_with("_us")) return "microseconds";
  if (ends_with("_ms")) return "milliseconds";
  if (ends_with("_seconds")) return "seconds";
  if (ends_with("_bytes")) return "bytes";
  return {};
}

}  // namespace

std::string to_metrics_json(const MetricsRegistry& registry) {
  std::ostringstream out;
  out << "{\n\"metrics\": [";
  bool first = true;
  for (const auto& [key, m] : registry.metrics()) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"name\": ";
    append_json_string(out, m.name);
    out << ", \"kind\": \"" << kind_name(m.kind) << "\"";
    if (!m.labels.empty()) {
      out << ", \"labels\": ";
      append_json_string(out, m.labels);
    }
    if (!m.help.empty()) {
      out << ", \"help\": ";
      append_json_string(out, m.help);
    }
    if (m.timing) out << ", \"timing\": true";
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out << ", \"value\": " << metric_scalar(m);
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = m.histogram;
        out << ", \"bounds\": [";
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
          if (i > 0) out << ", ";
          out << h.bounds[i];
        }
        out << "], \"buckets\": [";
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
          if (i > 0) out << ", ";
          out << h.counts[i];
        }
        out << "], \"count\": " << h.count << ", \"sum\": " << h.sum
            << ", \"min\": " << h.min << ", \"max\": " << h.max;
        break;
      }
    }
    out << "}";
  }
  out << "\n]\n}\n";
  return out.str();
}

std::string to_prometheus(const MetricsRegistry& registry) {
  std::ostringstream out;
  std::string open_family;  // family whose HELP/TYPE header was emitted last
  for (const auto& [key, m] : registry.metrics()) {
    if (m.name != open_family) {
      open_family = m.name;
      if (!m.help.empty()) {
        out << "# HELP " << m.name << ' ' << m.help << '\n';
      }
      const auto unit = unit_suffix(m.name);
      if (!unit.empty()) {
        out << "# UNIT " << m.name << ' ' << unit << '\n';
      }
      out << "# TYPE " << m.name << ' ' << kind_name(m.kind) << '\n';
    }
    const std::string label_body =
        m.labels.empty() ? std::string{} : "{" + m.labels + "}";
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out << m.name << label_body << ' ' << metric_scalar(m) << '\n';
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = m.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
          cumulative += i < h.counts.size() ? h.counts[i] : 0;
          out << m.name << "_bucket{";
          if (!m.labels.empty()) out << m.labels << ',';
          out << "le=\"" << h.bounds[i] << "\"} " << cumulative << '\n';
        }
        out << m.name << "_bucket{";
        if (!m.labels.empty()) out << m.labels << ',';
        out << "le=\"+Inf\"} " << h.count << '\n';
        out << m.name << "_sum" << label_body << ' ' << h.sum << '\n';
        out << m.name << "_count" << label_body << ' ' << h.count << '\n';
        break;
      }
    }
  }
  return out.str();
}

std::string render_run_report(const MetricsRegistry& registry) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"metric", "kind", "value"});
  for (const auto& [key, m] : registry.metrics()) {
    std::string value;
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        value = std::to_string(metric_scalar(m));
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = m.histogram;
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "n=%llu sum=%llu mean=%.1f p50=%llu p99=%llu max=%llu",
                      static_cast<unsigned long long>(h.count),
                      static_cast<unsigned long long>(h.sum), h.mean(),
                      static_cast<unsigned long long>(h.quantile(0.50)),
                      static_cast<unsigned long long>(h.quantile(0.99)),
                      static_cast<unsigned long long>(h.max));
        value = buf;
        break;
      }
    }
    rows.push_back({key, kind_name(m.kind), value});
  }
  std::string report = tls::analysis::render_table(rows);
  // What the fingerprint memo earns: the share of lookups that skipped
  // MD5 and the database label.
  if (const Metric* lookups =
          registry.find("tls_repro_notary_fp_memo_lookups_total")) {
    const Metric* hits = registry.find("tls_repro_notary_fp_memo_hits_total");
    const std::uint64_t n = lookups->counter.value;
    const std::uint64_t h = hits != nullptr ? hits->counter.value : 0;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "fp memo: lookups %llu, hit ratio %.4f\n",
                  static_cast<unsigned long long>(n),
                  n == 0 ? 0.0
                         : static_cast<double>(h) / static_cast<double>(n));
    report += buf;
  }
  return report;
}

std::string deterministic_digest(const MetricsRegistry& registry) {
  std::ostringstream out;
  for (const auto& [key, m] : registry.metrics()) {
    if (m.timing) continue;
    out << key << ' ' << kind_name(m.kind);
    switch (m.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out << ' ' << metric_scalar(m);
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = m.histogram;
        for (const auto c : h.counts) out << ' ' << c;
        out << " n=" << h.count << " sum=" << h.sum << " min=" << h.min
            << " max=" << h.max;
        break;
      }
    }
    out << '\n';
  }
  return out.str();
}

// ---- Prometheus exposition lint ----

namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  };
  const auto tail = [&](char c) {
    return head(c) || std::isdigit(static_cast<unsigned char>(c));
  };
  if (!head(name[0])) return false;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (!tail(name[i])) return false;
  }
  return true;
}

bool valid_label_name(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  };
  if (!head(name[0])) return false;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (!head(name[i]) && !std::isdigit(static_cast<unsigned char>(name[i]))) {
      return false;
    }
  }
  return true;
}

/// Parses `key="value",key="value"` starting after '{'; returns the index
/// one past the closing '}' or npos on malformed input.
std::size_t parse_label_body(const std::string& line, std::size_t pos,
                             bool* ok) {
  *ok = false;
  while (pos < line.size() && line[pos] != '}') {
    const auto eq = line.find('=', pos);
    if (eq == std::string::npos) return std::string::npos;
    if (!valid_label_name(
            std::string_view(line).substr(pos, eq - pos))) {
      return std::string::npos;
    }
    if (eq + 1 >= line.size() || line[eq + 1] != '"') {
      return std::string::npos;
    }
    pos = eq + 2;
    while (pos < line.size() && line[pos] != '"') {
      if (line[pos] == '\\') ++pos;  // escaped char
      ++pos;
    }
    if (pos >= line.size()) return std::string::npos;
    ++pos;  // closing quote
    if (pos < line.size() && line[pos] == ',') ++pos;
  }
  if (pos >= line.size()) return std::string::npos;
  *ok = true;
  return pos + 1;  // past '}'
}

bool valid_sample_value(std::string_view v) {
  if (v.empty()) return false;
  if (v == "+Inf" || v == "-Inf" || v == "NaN") return true;
  char* end = nullptr;
  std::string owned(v);
  std::strtod(owned.c_str(), &end);
  return end != nullptr && *end == '\0';
}

}  // namespace

std::vector<std::string> lint_prometheus(const std::string& text) {
  std::vector<std::string> errors;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;

  std::string current_family;       // family of the last # TYPE line
  std::string current_type;         // its declared type
  std::vector<std::string> closed;  // families already left behind
  bool saw_inf_bucket = false, saw_sum = false, saw_count = false;

  const auto err = [&](const std::string& msg) {
    errors.push_back("line " + std::to_string(line_no) + ": " + msg);
  };
  const auto close_family = [&] {
    if (current_family.empty()) return;
    if (current_type == "histogram" &&
        !(saw_inf_bucket && saw_sum && saw_count)) {
      errors.push_back("family " + current_family +
                       ": histogram missing +Inf bucket, _sum, or _count");
    }
    closed.push_back(current_family);
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, keyword, name;
      ls >> hash >> keyword >> name;
      if (keyword == "HELP") {
        if (!valid_metric_name(name)) err("bad metric name in HELP: " + name);
        continue;
      }
      if (keyword == "UNIT") {
        // OpenMetrics-compatible unit metadata: `# UNIT <name> <unit>`,
        // exactly one non-empty unit token.
        if (!valid_metric_name(name)) err("bad metric name in UNIT: " + name);
        std::string unit, extra;
        ls >> unit >> extra;
        if (unit.empty()) err("UNIT missing unit token for " + name);
        if (!extra.empty()) err("UNIT takes a single unit token, got trailing: " + extra);
        continue;
      }
      if (keyword != "TYPE") {
        err("unknown comment keyword (expected HELP, UNIT, or TYPE)");
        continue;
      }
      std::string type;
      ls >> type;
      if (!valid_metric_name(name)) err("bad metric name in TYPE: " + name);
      if (type != "counter" && type != "gauge" && type != "histogram") {
        err("bad TYPE value: " + type);
      }
      if (name != current_family) {
        close_family();
        for (const auto& f : closed) {
          if (f == name) {
            err("family " + name + " declared twice (interleaved)");
          }
        }
        current_family = name;
        current_type = type;
        saw_inf_bucket = saw_sum = saw_count = false;
      }
      continue;
    }

    // Sample line: name[{labels}] value
    std::size_t name_end = 0;
    while (name_end < line.size() && line[name_end] != '{' &&
           line[name_end] != ' ') {
      ++name_end;
    }
    const std::string name = line.substr(0, name_end);
    if (!valid_metric_name(name)) {
      err("bad sample metric name: " + name);
      continue;
    }
    std::size_t pos = name_end;
    std::string labels;
    if (pos < line.size() && line[pos] == '{') {
      bool ok = false;
      const std::size_t body_start = pos + 1;
      const std::size_t after = parse_label_body(line, body_start, &ok);
      if (!ok) {
        err("malformed label body");
        continue;
      }
      labels = line.substr(body_start, after - 1 - body_start);
      pos = after;
    }
    if (pos >= line.size() || line[pos] != ' ') {
      err("missing space before sample value");
      continue;
    }
    const std::string value = line.substr(pos + 1);
    if (!valid_sample_value(value)) err("bad sample value: " + value);

    if (current_family.empty()) {
      err("sample before any # TYPE declaration: " + name);
      continue;
    }
    bool belongs = name == current_family;
    if (current_type == "histogram") {
      if (name == current_family + "_bucket") {
        belongs = true;
        if (labels.find("le=\"+Inf\"") != std::string::npos) {
          saw_inf_bucket = true;
        }
      } else if (name == current_family + "_sum") {
        belongs = true;
        saw_sum = true;
      } else if (name == current_family + "_count") {
        belongs = true;
        saw_count = true;
      } else {
        belongs = false;
      }
    }
    if (!belongs) {
      err("sample " + name + " outside its family's TYPE block (current: " +
          current_family + ")");
    }
  }
  close_family();
  return errors;
}

// ---- minimal JSON syntax validator ----

namespace {

struct JsonCursor {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }
  [[nodiscard]] bool at(char c) const {
    return pos < text.size() && text[pos] == c;
  }
  bool eat(char c) {
    if (!at(c)) return false;
    ++pos;
    return true;
  }
};

bool parse_value(JsonCursor& c, int depth);

bool parse_string(JsonCursor& c) {
  if (!c.eat('"')) return false;
  while (c.pos < c.text.size() && c.text[c.pos] != '"') {
    if (c.text[c.pos] == '\\') {
      ++c.pos;
      if (c.pos >= c.text.size()) return false;
    }
    ++c.pos;
  }
  return c.eat('"');
}

bool parse_number(JsonCursor& c) {
  const std::size_t start = c.pos;
  if (c.at('-')) ++c.pos;
  while (c.pos < c.text.size() &&
         (std::isdigit(static_cast<unsigned char>(c.text[c.pos])) ||
          c.text[c.pos] == '.' || c.text[c.pos] == 'e' ||
          c.text[c.pos] == 'E' || c.text[c.pos] == '+' ||
          c.text[c.pos] == '-')) {
    ++c.pos;
  }
  return c.pos > start;
}

bool parse_literal(JsonCursor& c, std::string_view word) {
  if (c.text.compare(c.pos, word.size(), word) != 0) return false;
  c.pos += word.size();
  return true;
}

bool parse_value(JsonCursor& c, int depth) {
  if (depth > 64) return false;
  c.skip_ws();
  if (c.at('{')) {
    ++c.pos;
    c.skip_ws();
    if (c.eat('}')) return true;
    while (true) {
      c.skip_ws();
      if (!parse_string(c)) return false;
      c.skip_ws();
      if (!c.eat(':')) return false;
      if (!parse_value(c, depth + 1)) return false;
      c.skip_ws();
      if (c.eat(',')) continue;
      return c.eat('}');
    }
  }
  if (c.at('[')) {
    ++c.pos;
    c.skip_ws();
    if (c.eat(']')) return true;
    while (true) {
      if (!parse_value(c, depth + 1)) return false;
      c.skip_ws();
      if (c.eat(',')) continue;
      return c.eat(']');
    }
  }
  if (c.at('"')) return parse_string(c);
  if (c.at('t')) return parse_literal(c, "true");
  if (c.at('f')) return parse_literal(c, "false");
  if (c.at('n')) return parse_literal(c, "null");
  return parse_number(c);
}

}  // namespace

bool json_syntax_valid(const std::string& text) {
  JsonCursor c{text};
  if (!parse_value(c, 0)) return false;
  c.skip_ws();
  return c.pos == text.size();
}

}  // namespace tls::telemetry
