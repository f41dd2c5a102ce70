// Shared helpers of the repository benchmark: clocks, the metric tables,
// the percentile rule, the FIFO credit-ack matcher, the in-memory span
// recorder with self-time accounting, digests and process statistics.
// Everything here is exercised by selftest.cpp.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace tls::notary {
class PassiveMonitor;
}

namespace perfbench {

// ---- clocks ---------------------------------------------------------------

/// steady_clock in nanoseconds.
std::uint64_t now_ns();
inline double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }
inline double ns_to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// ---- command line ---------------------------------------------------------

/// Default aggregate open-loop rate of the daemon's paced phase
/// (captures/s): about half of the saturation rate measured on a 4-vCPU
/// host.
inline constexpr double kPacedRate = 60000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Aggregate open-loop rate of the daemon's paced phase (captures/s).
  double paced_rate = kPacedRate;
  /// StudyOptions::threads for the study workload.
  unsigned study_threads = 3;
  /// Directory (inside the checkout) for journals, CSV exports and traces.
  std::string scratch = ".bench_build/scratch";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1` plus the optional
/// `--paced-rate R`, `--study-threads T` and `--scratch DIR`. Returns false
/// with `error` set on a missing, unknown or malformed argument.
bool parse_args(int argc, const char* const* argv, Args& args,
                std::string& error);

// ---- metric tables --------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload prints untraced, in BENCHMARK.json
/// order.
const std::vector<MetricDef>& end_to_end_metrics();
/// The per-layer metrics every workload prints traced, in BENCHMARK.json
/// order.
const std::vector<MetricDef>& per_layer_metrics();

/// Metric name -> value, filled by a workload.
using MetricValues = std::map<std::string, double>;

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricValues metrics;

  /// Records a correctness gate; a false `ok` clears `correct` and says
  /// why on stderr.
  void gate(bool ok, const std::string& what);
};

/// Prints `perfbench: key=value` on stdout (informational lines that come
/// before the result line).
void info(const std::string& key, const std::string& value);
void info(const std::string& key, double value);

/// Prints the result object as the last stdout line. Every metric of
/// `defs` must be present and finite; returns false (printing nothing)
/// otherwise.
bool print_result(const Outcome& outcome, const std::vector<MetricDef>& defs);

// ---- percentiles ----------------------------------------------------------

/// Nearest-rank percentile of ascending `sorted` (q in (0, 1]).
double percentile(const std::vector<double>& sorted, double q);

/// The highest quantile of {0.99, 0.95, 0.90, 0.75, 0.50} that has at least
/// ten samples beyond it among `n`; 1.0 (the maximum) when none has.
double tail_quantile(std::size_t n);

struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tail = 0;     // value at tail_q
  double tail_q = 0;   // which quantile `tail` is
};

/// Sorts `samples` and summarizes them by the rule above.
Summary summarize(std::vector<double>& samples);

double median(std::vector<double> values);

/// The favorable quartile of per-repetition values: the 75th percentile of
/// rates (`higher_is_better`), the 25th of times. Interference from other
/// work on a shared machine only ever slows a repetition down, so this
/// reads the program's own speed more steadily than the median does.
double best_quartile(std::vector<double> values, bool higher_is_better);

// ---- credit-ack matcher ---------------------------------------------------

/// Client-side latency ledger of one daemon connection. The daemon returns
/// one credit per resolved capture but says not which, so returned credits
/// resolve in-flight captures oldest first (FIFO). Latency runs from the
/// capture's due time to the arrival of the credit that resolves it.
class AckMatcher {
 public:
  static constexpr int kUnmeasured = -1;
  /// One capture went out; a `sample` >= 0 files its latency under
  /// samples[sample] (one vector per measured window).
  void sent(std::uint64_t due_ns, int sample);
  /// `credits` returned at `now_ns`; resolved measured captures append
  /// their latency (us) to `samples_us[sample]`. Returns how many captures
  /// were resolved; credits beyond the in-flight count are booked as
  /// excess.
  std::size_t ack(std::uint32_t credits, std::uint64_t now_ns,
                  std::vector<std::vector<double>>& samples_us);
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t excess_credits() const { return excess_; }

 private:
  struct Pending {
    std::uint64_t due_ns;
    int sample;
  };
  std::deque<Pending> pending_;
  std::uint64_t excess_ = 0;
};

// ---- spans ----------------------------------------------------------------

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t task = 0;    // task or capture id
  std::uint32_t thread = 0;  // small per-process thread index
};

/// In-memory span store; spans are appended when they end. Thread-safe.
class Tracer {
 public:
  std::uint64_t next_id();
  void record(const SpanRecord& span);
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Writes every span as CSV (id,parent,name,start_ns,end_ns,task,thread).
  bool write_csv(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 0;
};

/// Small dense index of the calling thread (0 for the first thread that
/// asks, then 1, 2, ...).
std::uint32_t thread_index();

/// RAII span; a null tracer makes it a no-op that reads no clock.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t parent = 0,
       std::uint64_t task = 0);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return record_.id; }
  void end();

 private:
  Tracer* tracer_;
  SpanRecord record_;
};

struct LayerTime {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals. Keyed by span id.
std::map<std::uint64_t, double> self_times(const std::vector<SpanRecord>& spans);

/// Per span name: count, summed duration and summed self time.
std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans);

// ---- digests and process statistics ----------------------------------------

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                      std::uint64_t hash = 0xcbf29ce484222325ull);
std::string hex64(std::uint64_t value);
/// FNV-1a-64 of encode_monitor_state(monitor).
std::uint64_t monitor_digest(const tls::notary::PassiveMonitor& monitor);
/// FNV-1a-64 over the bytes of `paths`, in order (0 if one is unreadable).
std::uint64_t files_digest(const std::vector<std::string>& paths);

/// Share of distinct values among `keys` (1.0 for an empty input).
double distinct_ratio(std::vector<std::uint64_t> keys);

/// VmHWM of this process in MiB.
double peak_rss_mb();
/// Threads currently in this process (/proc/self/task entries).
int process_threads();
/// Online processors.
unsigned cpu_count();

/// Pins the calling thread to one allowed processor after another, so that
/// single-threaded repetitions sample every processor of a virtual machine
/// (they need not be equally fast: their host cores may be shared). The
/// original affinity comes back on release() and on destruction; threads
/// created while pinned inherit the pin, so release before starting any.
class ProcessorRotation {
 public:
  ProcessorRotation();
  ~ProcessorRotation() { release(); }
  ProcessorRotation(const ProcessorRotation&) = delete;
  ProcessorRotation& operator=(const ProcessorRotation&) = delete;

  /// Pins to the (step mod n)-th allowed processor.
  void pin(std::size_t step) const;
  void release() const;

 private:
  std::vector<int> cpus_;
  std::vector<unsigned char> saved_;  // the original cpu_set_t bytes
};

}  // namespace perfbench
