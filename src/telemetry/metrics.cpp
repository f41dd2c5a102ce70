#include "telemetry/metrics.hpp"

#include <algorithm>

namespace tls::telemetry {

void Histogram::record(std::uint64_t sample) {
  if (counts.size() != bounds.size() + 1) {
    counts.assign(bounds.size() + 1, 0);
  }
  // The first bound >= sample (bounds ascend), or the +Inf bucket.
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), sample) - bounds.begin());
  ++counts[bucket];
  if (count == 0 || sample < min) min = sample;
  if (count == 0 || sample > max) max = sample;
  ++count;
  sum += sample;
}

void Histogram::merge(const Histogram& other) {
  if (other.count == 0) return;
  if (bounds == other.bounds) {
    if (counts.size() != bounds.size() + 1) {
      counts.assign(bounds.size() + 1, 0);
    }
    for (std::size_t i = 0; i < counts.size() && i < other.counts.size();
         ++i) {
      counts[i] += other.counts[i];
    }
  }
  if (count == 0 || other.min < min) min = other.min;
  if (count == 0 || other.max > max) max = other.max;
  count += other.count;
  sum += other.sum;
}

std::uint64_t Histogram::quantile(double q) const {
  if (count == 0) return 0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(count) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= target) return i < bounds.size() ? bounds[i] : max;
  }
  return max;
}

std::vector<std::uint64_t> log_linear_buckets(std::uint64_t lo,
                                              std::uint64_t hi,
                                              unsigned subdiv) {
  if (lo == 0) lo = 1;
  if (subdiv == 0) subdiv = 1;
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t base = lo; base < hi && base != 0; base *= 2) {
    const std::uint64_t step = std::max<std::uint64_t>(1, base / subdiv);
    for (unsigned i = 1; i <= subdiv; ++i) {
      const std::uint64_t bound = base + step * i;
      if (bounds.empty() || bound > bounds.back()) bounds.push_back(bound);
    }
    // Overflow guard: a base in the top octave of u64 would wrap.
    if (base > (UINT64_MAX / 2)) break;
  }
  return bounds;
}

const std::vector<std::uint64_t>& wide_latency_buckets_us() {
  static const std::vector<std::uint64_t> buckets =
      log_linear_buckets(1, 64'000'000, 4);
  return buckets;
}

std::string MetricsRegistry::key_of(std::string_view name,
                                    std::string_view labels) {
  std::string key(name);
  if (!labels.empty()) {
    key += '{';
    key += labels;
    key += '}';
  }
  return key;
}

Metric& MetricsRegistry::resolve(MetricKind kind, std::string_view name,
                                 std::string_view labels,
                                 std::string_view help, bool timing) {
  auto [it, inserted] = metrics_.try_emplace(key_of(name, labels));
  Metric& m = it->second;
  if (inserted) {
    m.kind = kind;
    m.name = std::string(name);
    m.labels = std::string(labels);
    m.help = std::string(help);
    m.timing = timing;
  } else if (m.help.empty() && !help.empty()) {
    m.help = std::string(help);
  }
  return m;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view labels,
                                  std::string_view help, bool timing) {
  return resolve(MetricKind::kCounter, name, labels, help, timing).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view labels,
                              std::string_view help, bool timing) {
  return resolve(MetricKind::kGauge, name, labels, help, timing).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const std::uint64_t> bounds,
                                      std::string_view labels,
                                      std::string_view help, bool timing) {
  Metric& m = resolve(MetricKind::kHistogram, name, labels, help, timing);
  if (m.histogram.bounds.empty() && m.histogram.count == 0) {
    m.histogram.bounds.assign(bounds.begin(), bounds.end());
    m.histogram.counts.assign(m.histogram.bounds.size() + 1, 0);
  }
  return m.histogram;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [key, theirs] : other.metrics_) {
    auto [it, inserted] = metrics_.try_emplace(key, theirs);
    if (inserted) continue;
    Metric& mine = it->second;
    if (mine.kind != theirs.kind) continue;  // programming error; keep ours
    switch (mine.kind) {
      case MetricKind::kCounter:
        mine.counter.value += theirs.counter.value;
        break;
      case MetricKind::kGauge:
        mine.gauge.value = std::max(mine.gauge.value, theirs.gauge.value);
        break;
      case MetricKind::kHistogram:
        mine.histogram.merge(theirs.histogram);
        break;
    }
    if (mine.help.empty()) mine.help = theirs.help;
  }
}

const Metric* MetricsRegistry::find(std::string_view name,
                                    std::string_view labels) const {
  const auto it = metrics_.find(key_of(name, labels));
  return it == metrics_.end() ? nullptr : &it->second;
}

}  // namespace tls::telemetry
