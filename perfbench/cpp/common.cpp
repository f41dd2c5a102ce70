#include "common.hpp"

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "notary/monitor.hpp"
#include "notary/snapshot.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- command line ---------------------------------------------------------

namespace {

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_positive(const std::string& text, double& out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v) || v <= 0) {
    return false;
  }
  out = v;
  return true;
}

}  // namespace

bool parse_args(int argc, const char* const* argv, Args& args,
                std::string& error) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    std::uint64_t u = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, args.seed)) {
        error = "bad --seed: " + value;
        return false;
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_positive(value, args.seconds)) {
        error = "bad --seconds: " + value;
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        error = "bad --trace (0 or 1): " + value;
        return false;
      }
      args.trace = value == "1";
    } else if (flag == "--paced-rate") {
      if (!parse_positive(value, args.paced_rate)) {
        error = "bad --paced-rate: " + value;
        return false;
      }
    } else if (flag == "--study-threads") {
      if (!parse_u64(value, u) || u > 256) {
        error = "bad --study-threads: " + value;
        return false;
      }
      args.study_threads = static_cast<unsigned>(u);
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      error = "unknown argument " + flag;
      return false;
    }
  }
  if (!have_workload || !have_seed) {
    error = "--workload and --seed are required";
    return false;
  }
  return true;
}

// ---- metric tables --------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"captures_per_s", "1/s"},
      {"latency_p50_us", "us"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"clients.catalog_build_s", "s"},
      {"servers.population_build_s", "s"},
      {"population.market_build_s", "s"},
      {"fingerprint.database_build_s", "s"},
      {"population.generate_us_per_conn", "us"},
      {"population.template_hit_ratio", "ratio"},
      {"handshake.plan_hit_ratio", "ratio"},
      {"notary.observe_us_per_conn", "us"},
      {"notary.cache_lookups", "count"},
      {"notary.cache_hit_ratio", "ratio"},
      {"notary.absorb_us_per_shard", "us"},
      {"notary.snapshot_encode_us_per_frame", "us"},
      {"notary.quarantined", "count"},
      {"wire.client_parse_us", "us"},
      {"wire.server_parse_us", "us"},
      {"wire.distinct_record_ratio", "ratio"},
      {"fingerprint.extract_us", "us"},
      {"fingerprint.hash_us", "us"},
      {"fingerprint.label_us", "us"},
      {"fingerprint.distinct_ratio", "ratio"},
      {"core.journal_append_us_per_frame", "us"},
      {"core.journal_flush_ms", "ms"},
      {"core.journal_fsyncs_per_frame", "ratio"},
      {"core.pool_busy_ratio", "ratio"},
      {"core.threads_running", "count"},
      {"scan.sweep_s", "s"},
      {"analysis.export_s", "s"},
      {"daemon.frame_decode_us", "us"},
      {"daemon.credit_stall_ratio", "ratio"},
      {"daemon.captures_per_grant", "count"},
      {"daemon.ack_p99_us", "us"},
      {"daemon.stage_queue_us_p99", "us"},
      {"daemon.stage_observe_us_p50", "us"},
      {"daemon.stage_complete_us_p50", "us"},
      {"daemon.shed", "count"},
      {"daemon.malformed", "count"},
      {"loadgen.lateness_p99_us", "us"},
      {"loadgen.encode_us", "us"},
      {"trace.overhead_pct", "%"},
  };
  return defs;
}

void Outcome::gate(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "perfbench: correctness gate failed: " << what << "\n";
}

void info(const std::string& key, const std::string& value) {
  std::cout << "perfbench: " << key << "=" << value << "\n";
}

void info(const std::string& key, double value) {
  std::ostringstream out;
  out.precision(10);
  out << value;
  info(key, out.str());
}

bool print_result(const Outcome& outcome, const std::vector<MetricDef>& defs) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& def : defs) {
    const auto it = outcome.metrics.find(def.name);
    if (it == outcome.metrics.end() || !std::isfinite(it->second)) {
      std::cerr << "perfbench: metric " << def.name
                << " missing or not finite\n";
      return false;
    }
    if (!first) out << ", ";
    first = false;
    out << "\"" << def.name << "\": {\"value\": " << it->second
        << ", \"unit\": \"" << def.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return true;
}

// ---- percentiles ----------------------------------------------------------

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double tail_quantile(std::size_t n) {
  for (const double q : {0.99, 0.95, 0.90, 0.75, 0.50}) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (n >= rank + 10) return q;
  }
  return 1.0;
}

Summary summarize(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = percentile(samples, 0.5);
  s.tail_q = tail_quantile(s.n);
  s.tail = percentile(samples, s.tail_q);
  return s;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile(values, 0.5);
}

double best_quartile(std::vector<double> values, bool higher_is_better) {
  std::sort(values.begin(), values.end());
  return percentile(values, higher_is_better ? 0.75 : 0.25);
}

// ---- credit-ack matcher ---------------------------------------------------

void AckMatcher::sent(std::uint64_t due_ns, int sample) {
  pending_.push_back({due_ns, sample});
}

std::size_t AckMatcher::ack(std::uint32_t credits, std::uint64_t now_ns,
                            std::vector<std::vector<double>>& samples_us) {
  std::size_t resolved = 0;
  for (; resolved < credits && !pending_.empty(); ++resolved) {
    const Pending p = pending_.front();
    pending_.pop_front();
    if (p.sample < 0) continue;
    const auto k = static_cast<std::size_t>(p.sample);
    if (samples_us.size() <= k) samples_us.resize(k + 1);
    samples_us[k].push_back(now_ns > p.due_ns ? ns_to_us(now_ns - p.due_ns)
                                              : 0.0);
  }
  excess_ += credits - resolved;
  return resolved;
}

// ---- spans ----------------------------------------------------------------

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ++next_id_;
}

void Tracer::record(const SpanRecord& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id,parent,name,start_ns,end_ns,task,thread\n";
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& s : spans_) {
    out << s.id << ',' << s.parent << ',' << s.name << ',' << s.start_ns
        << ',' << s.end_ns << ',' << s.task << ',' << s.thread << '\n';
  }
  return static_cast<bool>(out);
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

Span::Span(Tracer* tracer, const char* name, std::uint64_t parent,
           std::uint64_t task)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.id = tracer_->next_id();
  record_.parent = parent;
  record_.name = name;
  record_.task = task;
  record_.thread = thread_index();
  record_.start_ns = now_ns();
}

void Span::end() {
  if (tracer_ == nullptr) return;
  record_.end_ns = now_ns();
  tracer_->record(record_);
  tracer_ = nullptr;
}

std::map<std::uint64_t, double> self_times(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, const SpanRecord*> by_id;
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const auto& s : spans) {
    by_id[s.id] = &s;
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::uint64_t, double> out;
  for (const auto& s : spans) {
    const double duration =
        s.end_ns > s.start_ns ? static_cast<double>(s.end_ns - s.start_ns) : 0;
    auto it = children.find(s.id);
    if (it == children.end()) {
      out[s.id] = duration;
      continue;
    }
    // Union of the children's intervals, clipped to this span's interval.
    auto intervals = it->second;
    std::sort(intervals.begin(), intervals.end());
    double covered = 0;
    std::uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : intervals) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += static_cast<double>(cur_hi - cur_lo);
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += static_cast<double>(cur_hi - cur_lo);
    out[s.id] = std::max(0.0, duration - covered);
  }
  return out;
}

std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, LayerTime> out;
  for (const auto& s : spans) {
    auto& layer = out[s.name];
    ++layer.count;
    layer.total_ns +=
        s.end_ns > s.start_ns ? static_cast<double>(s.end_ns - s.start_ns) : 0;
    layer.self_ns += self.at(s.id);
  }
  return out;
}

// ---- digests and process statistics ----------------------------------------

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes, std::uint64_t hash) {
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t monitor_digest(const tls::notary::PassiveMonitor& monitor) {
  return fnv1a64(tls::notary::encode_monitor_state(monitor));
}

std::uint64_t files_digest(const std::vector<std::string>& paths) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return 0;
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    hash = fnv1a64(bytes, hash);
  }
  return hash;
}

double distinct_ratio(std::vector<std::uint64_t> keys) {
  if (keys.empty()) return 1.0;
  std::sort(keys.begin(), keys.end());
  const auto distinct = static_cast<double>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
  return distinct / static_cast<double>(keys.size());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

int process_threads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  int n = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

unsigned cpu_count() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

ProcessorRotation::ProcessorRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(&set);
  saved_.assign(bytes, bytes + sizeof(set));
}

void ProcessorRotation::release() const {
  if (saved_.size() != sizeof(cpu_set_t)) return;
  cpu_set_t set;
  std::memcpy(&set, saved_.data(), sizeof(set));
  ::sched_setaffinity(0, sizeof(set), &set);
}

void ProcessorRotation::pin(std::size_t step) const {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[step % cpus_.size()], &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace perfbench
