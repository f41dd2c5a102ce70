#include "telemetry/trace.hpp"

#include <algorithm>
#include <sstream>

namespace tls::telemetry {

namespace {

void append_json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
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

}  // namespace

std::string TraceRecorder::to_json() const {
  std::uint64_t epoch = 0;
  if (!events_.empty()) {
    epoch = events_.front().ts_us;
    for (const auto& e : events_) epoch = std::min(epoch, e.ts_us);
  }
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events_) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":";
    append_json_string(out, e.name);
    out << ",\"cat\":";
    append_json_string(out, e.category);
    out << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
        << ",\"ts\":" << (e.ts_us - epoch) << ",\"dur\":" << e.dur_us;
    if (!e.args.empty()) {
      out << ",\"args\":{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out << ",";
        append_json_string(out, e.args[i].first);
        out << ":" << e.args[i].second;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

}  // namespace tls::telemetry
