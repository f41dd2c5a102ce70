// Steady-state heap allocations of PassiveMonitor::observe_wire and of the
// daemon's ingest path. This executable replaces the global operator new to
// count every allocation; it is its own binary so the replacement touches
// no other test. The tests warm up on fingerprint-era captures, give every
// capture a fresh random and session id (as a real tap sees), and feed
// them again: each fingerprint has been seen, so the byte path must not
// allocate at all.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "clients/catalog.hpp"
#include "core/study.hpp"
#include "daemon/capture.hpp"
#include "daemon/daemon.hpp"
#include "daemon/protocol.hpp"
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

/// A raw loopback sensor: sends pre-encoded capture frames within its
/// credit window and reads the daemon's grants into a stack buffer, so the
/// client side allocates nothing while the window is counted.
class RawSensor {
 public:
  explicit RawSensor(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    int one = 1;
    if (connected_) {
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
  ~RawSensor() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawSensor(const RawSensor&) = delete;
  RawSensor& operator=(const RawSensor&) = delete;

  [[nodiscard]] bool ok() const { return connected_ && !failed_; }

  /// Sends the frames of `stream` (frame i spans ends[i-1]..ends[i]),
  /// waiting for grants whenever the window is spent.
  void send_all(const std::vector<std::uint8_t>& stream,
                const std::vector<std::size_t>& ends) {
    std::size_t next = 0;
    while (next < ends.size() && ok()) {
      if (credits_ == 0) {
        read_grants(/*timeout_ms=*/5000);
        continue;
      }
      const std::size_t last =
          std::min<std::size_t>(ends.size(), next + credits_);
      const std::size_t from = next == 0 ? 0 : ends[next - 1];
      send_bytes(stream.data() + from, ends[last - 1] - from);
      credits_ -= static_cast<std::uint32_t>(last - next);
      next = last;
      read_grants(/*timeout_ms=*/0);
    }
  }

 private:
  void send_bytes(const std::uint8_t* p, std::size_t n) {
    while (n > 0 && ok()) {
      const auto sent = ::send(fd_, p, n, MSG_NOSIGNAL);
      if (sent <= 0) {
        failed_ = true;
        return;
      }
      p += sent;
      n -= static_cast<std::size_t>(sent);
    }
  }

  /// Reads whatever grant frames have arrived (waiting up to
  /// `timeout_ms` for the first byte) and adds their credits.
  void read_grants(int timeout_ms) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      if (timeout_ms > 0) failed_ = true;  // the daemon went silent
      return;
    }
    const auto n = ::recv(fd_, buf_ + have_, sizeof(buf_) - have_, 0);
    if (n <= 0) {
      failed_ = true;
      return;
    }
    have_ += static_cast<std::size_t>(n);
    constexpr std::size_t kGrantFrame = tls::daemon::kFrameHeaderBytes + 4 +
                                        tls::daemon::kFrameTrailerBytes;
    std::size_t off = 0;
    for (; have_ - off >= kGrantFrame; off += kGrantFrame) {
      const auto grant = tls::daemon::decode_credit_grant(
          {buf_ + off + tls::daemon::kFrameHeaderBytes, 4});
      if (buf_[off + 4] !=
              static_cast<std::uint8_t>(tls::daemon::FrameType::kCreditGrant) ||
          !grant) {
        failed_ = true;
        return;
      }
      credits_ += *grant;
    }
    std::memmove(buf_, buf_ + off, have_ - off);
    have_ -= off;
  }

  int fd_ = -1;
  bool connected_ = false;
  bool failed_ = false;
  std::uint32_t credits_ = 0;
  std::uint8_t buf_[4096];
  std::size_t have_ = 0;
};

/// `passes` copies of `captures` as one stream of capture frames, each
/// copy with fresh randoms and session ids; `ends` gets each frame's end.
std::vector<std::uint8_t> capture_stream(std::vector<CapturePayload> captures,
                                         int passes, tls::core::Rng& rng,
                                         std::vector<std::size_t>& ends) {
  std::vector<std::uint8_t> stream;
  ends.clear();
  for (int pass = 0; pass < passes; ++pass) {
    for (auto& c : captures) {
      refresh_hello(c.client, rng);
      refresh_hello(c.server, rng);
      tls::daemon::append_frame(stream, tls::daemon::FrameType::kCapture,
                                tls::daemon::encode_capture(c));
      ends.push_back(stream.size());
    }
  }
  return stream;
}

bool wait_for_ingested(const tls::daemon::NotaryDaemon& daemon,
                       std::uint64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (daemon.counters().ingested < want) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(DaemonAllocations, SteadyStateIngestAllocatesNothing) {
  const auto captures = fingerprint_era_captures();
  const auto catalog = tls::clients::Catalog::core_only();
  const auto database =
      tls::study::LongitudinalStudy::build_database(catalog);
  tls::core::Rng rng(0xDAE5);
  // Warm-up: every shard monitor sees every fingerprint (routing hashes
  // the fresh randoms, so each pass spreads them anew), and the recycled
  // payloads and completion buffers grow to the sizes the load needs.
  std::vector<std::size_t> warm_ends;
  const auto warm = capture_stream(captures, 8, rng, warm_ends);
  std::vector<std::size_t> ends;
  const auto measured = capture_stream(captures, 12, rng, ends);
  ASSERT_GE(ends.size(), 20000u);

  // The default credit window keeps each shard's queue within the ring's
  // initial slots; a load that queues more doubles the ring once per
  // doubling of its peak, which is growth, not steady state.
  tls::daemon::DaemonConfig config;
  config.shards = 2;
  config.database = &database;
  tls::daemon::NotaryDaemon daemon(config);
  ASSERT_TRUE(daemon.start()) << daemon.last_error();
  RawSensor sensor(daemon.port());
  ASSERT_TRUE(sensor.ok());

  sensor.send_all(warm, warm_ends);
  ASSERT_TRUE(sensor.ok());
  ASSERT_TRUE(wait_for_ingested(daemon, warm_ends.size()));

  const std::uint64_t before = g_allocations.load();
  sensor.send_all(measured, ends);
  const bool drained =
      wait_for_ingested(daemon, warm_ends.size() + ends.size());
  const std::uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(sensor.ok());
  ASSERT_TRUE(drained);

  const auto c = daemon.counters();
  EXPECT_EQ(c.offered, warm_ends.size() + ends.size());
  EXPECT_EQ(c.shed, 0u);
  EXPECT_EQ(c.malformed, 0u);
  RecordProperty("allocations_per_capture",
                 std::to_string(static_cast<double>(allocations) /
                                static_cast<double>(ends.size())));
  EXPECT_LT(allocations * 1000, ends.size())
      << allocations << " allocations over " << ends.size() << " captures";
  daemon.request_stop();
  daemon.join();
}

}  // namespace
