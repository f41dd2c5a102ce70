// Steady-state heap allocations of PassiveMonitor::observe_wire. This
// executable replaces the global operator new to count every allocation;
// it is its own binary so the replacement touches no other test. The test
// warms a monitor on fingerprint-era captures, gives every capture a fresh
// random and session id (as a real tap sees), and feeds them again: each
// fingerprint has been seen, so the byte path must not allocate at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "clients/catalog.hpp"
#include "core/study.hpp"
#include "daemon/capture.hpp"
#include "notary/monitor.hpp"
#include "population/market.hpp"
#include "population/traffic.hpp"
#include "servers/population.hpp"
#include "tlscore/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using tls::daemon::CapturePayload;

std::vector<CapturePayload> fingerprint_era_captures() {
  const auto catalog = tls::clients::Catalog::core_only();
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);
  tls::population::TrafficGenerator gen(market, servers, 0xA110C);
  std::vector<CapturePayload> captures;
  for (const auto month :
       {tls::core::Month(2015, 2), tls::core::Month(2016, 7),
        tls::core::Month(2017, 11), tls::core::Month(2018, 3)}) {
    gen.generate_month(month, 500,
                       [&](const tls::population::ConnectionEvent& event) {
                         captures.push_back(
                             tls::daemon::capture_from_event(event));
                       });
  }
  return captures;
}

/// Overwrites the random and session id of a ClientHello or ServerHello
/// record in place (record header 5 + handshake header 4 + version 2).
void refresh_hello(std::vector<std::uint8_t>& record, tls::core::Rng& rng) {
  constexpr std::size_t kRandom = 11;
  if (record.size() < kRandom + 33) return;
  const std::size_t sid_end = kRandom + 33 + record[kRandom + 32];
  for (std::size_t i = kRandom; i < sid_end && i < record.size(); ++i) {
    if (i != kRandom + 32) record[i] = static_cast<std::uint8_t>(rng.next());
  }
}

void feed(tls::notary::PassiveMonitor& monitor,
          const std::vector<CapturePayload>& captures) {
  for (const auto& c : captures) {
    const tls::core::Month month(static_cast<int>(c.month_index / 12),
                                 static_cast<int>(c.month_index % 12) + 1);
    if (c.sslv2) {
      monitor.observe_sslv2(month);
    } else {
      monitor.observe_wire(month, c.day, c.client, c.server, c.ske, c.success,
                           c.used_fallback, c.alert);
    }
  }
}

TEST(MonitorAllocations, SteadyStateObserveWireAllocatesNothing) {
  auto captures = fingerprint_era_captures();
  const auto catalog = tls::clients::Catalog::core_only();
  const auto database =
      tls::study::LongitudinalStudy::build_database(catalog);
  tls::notary::PassiveMonitor monitor(&database);
  feed(monitor, captures);
  feed(monitor, captures);
  const std::size_t fingerprints = monitor.durations().size();
  ASSERT_GT(fingerprints, 10u);
  ASSERT_EQ(monitor.errors().total(), 0u);

  tls::core::Rng rng(0xF5E5);
  for (auto& c : captures) {
    refresh_hello(c.client, rng);
    refresh_hello(c.server, rng);
  }
  const std::uint64_t before = g_allocations.load();
  feed(monitor, captures);
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(monitor.durations().size(), fingerprints)
      << "the measured pass saw a new fingerprint";
  EXPECT_EQ(monitor.errors().total(), 0u);
  EXPECT_EQ(monitor.total_connections(), 3 * captures.size());
  RecordProperty("allocations_per_observe",
                 std::to_string(static_cast<double>(allocations) /
                                static_cast<double>(captures.size())));
  EXPECT_EQ(allocations, 0u) << "over " << captures.size()
                             << " observe calls";
}

}  // namespace
