#include "reference.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

constexpr std::size_t kWords = 8192;  // 64 KiB

double elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace

// Written by every kernel run so that the kernel cannot be optimized away.
volatile std::uint64_t reference_sink = 0;

double reference_kernel_ns() {
  thread_local std::vector<std::uint64_t> words(kWords);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& w : words) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }
  std::sort(words.begin(), words.end());
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (w >> (8 * b)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  }
  reference_sink = hash;
  return elapsed_ns(t0);
}

double reference_ns(int rounds) {
  std::vector<double> times;
  for (int r = 0; r < std::max(1, rounds); ++r) {
    times.push_back(reference_kernel_ns());
  }
  return median_of(std::move(times));
}

double reference_parallel_ns(unsigned threads, int rounds) {
  threads = std::max(1u, threads);
  std::vector<std::vector<double>> times(threads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < std::max(1, rounds); ++r) {
        times[t].push_back(reference_kernel_ns());
      }
    });
  }
  for (auto& w : workers) w.join();
  std::vector<double> all;
  for (const auto& t : times) all.insert(all.end(), t.begin(), t.end());
  return median_of(std::move(all));
}

}  // namespace perfbench
