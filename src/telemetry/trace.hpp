// Pipeline spans around the study phases (generate, observe, absorb,
// checkpoint encode/append, scan probe, CSV render), exported as Chrome
// `trace_event` JSON — the format chrome://tracing and Perfetto load
// directly.
//
// Concurrency model: a recorder is single-threaded. Shard tasks keep no
// recorder of their own; they stamp plain start/duration integers, which
// the study turns into events on its one recorder, in the fixed plan
// order, after the pool drains. The RAII Span times the study-level
// phases on the thread that owns the recorder.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/stopwatch.hpp"

namespace tls::telemetry {

/// One complete ("ph":"X") trace event. `ts_us` is monotonic-clock
/// microseconds (normalized to the earliest event at export time); `tid`
/// is the lane the event renders on (the study uses one lane per shard
/// task plus lane 0 for study-level phases).
struct TraceEvent {
  std::string name;
  std::string category;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;
  /// Numeric args shown in the trace viewer's detail pane.
  std::vector<std::pair<std::string, std::uint64_t>> args;
};

class TraceRecorder {
 public:
  void add(TraceEvent event) { events_.push_back(std::move(event)); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Chrome trace_event JSON ({"traceEvents":[...]}). Timestamps are
  /// shifted so the earliest event starts at 0.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<TraceEvent> events_;
};

/// RAII span: measures construction-to-destruction (or close()) and
/// records one complete event.
class Span {
 public:
  Span(TraceRecorder& recorder, std::string name, std::string category,
       std::uint32_t tid)
      : recorder_(&recorder) {
    event_.name = std::move(name);
    event_.category = std::move(category);
    event_.tid = tid;
    event_.ts_us = now_us();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { close(); }

  void arg(std::string key, std::uint64_t value) {
    event_.args.emplace_back(std::move(key), value);
  }

  /// Stops the clock and records the event; further calls are no-ops.
  void close() {
    if (recorder_ == nullptr) return;
    event_.dur_us = now_us() - event_.ts_us;
    recorder_->add(std::move(event_));
    recorder_ = nullptr;
  }

 private:
  TraceRecorder* recorder_;  // null once closed
  TraceEvent event_;
};

}  // namespace tls::telemetry
