#include "pool.hpp"

#include <cstring>
#include <utility>

#include "core/shard.hpp"
#include "daemon/capture.hpp"

namespace perfbench {
namespace {

/// TLS record header (5) + handshake header (4) + legacy_version (2).
constexpr std::size_t kRandomOffset = 11;
constexpr std::size_t kRandomBytes = 32;
constexpr std::size_t kSessionIdLengthOffset = kRandomOffset + kRandomBytes;
/// Frame header (9) + capture header: month u32, date u32, flags u8.
constexpr std::size_t kFrameClientLength = tls::daemon::kFrameHeaderBytes + 9;

void fill_random(std::uint8_t* out, std::size_t n, tls::core::Rng& rng) {
  while (n > 0) {
    const std::uint64_t v = rng.next();
    const std::size_t k = n < 8 ? n : 8;
    std::memcpy(out, &v, k);
    out += k;
    n -= k;
  }
}

bool is_handshake(const std::uint8_t* record, std::size_t size,
                  std::uint8_t type) {
  return size >= kSessionIdLengthOffset && record[0] == 0x16 &&
         record[5] == type;
}

}  // namespace

bool refresh_client_record(std::uint8_t* record, std::size_t size,
                           tls::core::Rng& rng) {
  if (!is_handshake(record, size, 0x01)) return false;
  fill_random(record + kRandomOffset, kRandomBytes, rng);
  if (size > kSessionIdLengthOffset) {
    const std::size_t sid = record[kSessionIdLengthOffset];
    if (sid <= 32 && kSessionIdLengthOffset + 1 + sid <= size) {
      fill_random(record + kSessionIdLengthOffset + 1, sid, rng);
    }
  }
  return true;
}

bool refresh_server_record(std::uint8_t* record, std::size_t size,
                           tls::core::Rng& rng) {
  if (!is_handshake(record, size, 0x02)) return false;
  fill_random(record + kRandomOffset, kRandomBytes, rng);
  return true;
}

tls::core::MonthRange fingerprint_era() {
  return {tls::core::Month(2014, 10), tls::core::Month(2018, 4)};
}

void CapturePool::add(tls::daemon::CapturePayload capture) {
  PooledCapture entry;
  entry.frame = tls::daemon::encode_frame(tls::daemon::FrameType::kCapture,
                                          tls::daemon::encode_capture(capture));
  // Locate the records inside the frame so sends can patch them in place.
  const auto located = [&](std::size_t offset,
                           const std::vector<std::uint8_t>& record) {
    return !record.empty() && offset + record.size() <= entry.frame.size() &&
           std::memcmp(entry.frame.data() + offset, record.data(),
                       record.size()) == 0;
  };
  if (located(kFrameClientLength + 4, capture.client)) {
    entry.frame_client = kFrameClientLength + 4;
    const std::size_t server = entry.frame_client + capture.client.size() + 4;
    if (located(server, capture.server)) entry.frame_server = server;
  }
  entry.capture = std::move(capture);
  entries_.push_back(std::move(entry));
}

void CapturePool::generate(const tls::population::MarketModel& market,
                           const tls::servers::ServerPopulation& servers,
                           std::uint64_t seed, tls::core::MonthRange months,
                           std::size_t count, Tracer* tracer,
                           GenerationStats& stats) {
  tls::population::TrafficGenerator gen(market, servers, seed);
  const auto per_month = tls::core::shard_counts(
      count, static_cast<std::size_t>(months.size()));
  std::size_t k = 0;
  for (auto m = months.begin_month; m <= months.end_month; ++m, ++k) {
    if (per_month[k] == 0) continue;
    Span span(tracer, "population.generate", 0, k);
    std::uint64_t sink_ns = 0;
    const std::uint64_t t0 = now_ns();
    gen.generate_month_batched(
        m, per_month[k], 256,
        [&](std::span<const tls::population::ConnectionEvent> events) {
          Span convert(tracer, "bench.capture_convert", span.id(), k);
          const std::uint64_t s0 = now_ns();
          for (const auto& event : events) {
            add(tls::daemon::capture_from_event(event));
          }
          sink_ns += now_ns() - s0;
        });
    const std::uint64_t total = now_ns() - t0;
    stats.generate_ns += static_cast<double>(total - std::min(total, sink_ns));
    stats.connections += per_month[k];
  }
  const auto& gs = gen.gen_cache_stats();
  stats.cache.template_hits += gs.template_hits;
  stats.cache.template_misses += gs.template_misses;
  stats.cache.bypasses += gs.bypasses;
  stats.cache.plan_hits += gs.plan_hits;
  stats.cache.plan_misses += gs.plan_misses;
  stats.cache.template_bytes += gs.template_bytes;
}

std::vector<std::size_t> CapturePool::lane(std::size_t lane) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].capture.month_index % 2 == lane % 2) out.push_back(i);
  }
  return out;
}

std::optional<std::uint64_t> CapturePool::refresh_capture(std::size_t i,
                                                          tls::core::Rng& rng) {
  auto& c = entries_[i].capture;
  if (c.sslv2) return std::nullopt;
  refresh_client_record(c.client.data(), c.client.size(), rng);
  refresh_server_record(c.server.data(), c.server.size(), rng);
  return fnv1a64(c.client);
}

std::optional<std::uint64_t> CapturePool::refresh_frame(std::size_t i,
                                                        tls::core::Rng& rng) {
  auto& e = entries_[i];
  if (e.capture.sslv2) return std::nullopt;
  if (e.frame_client == 0) {
    // Records that could not be located go out unchanged.
    return fnv1a64(e.capture.client);
  }
  const std::span<const std::uint8_t> client(e.frame.data() + e.frame_client,
                                             e.capture.client.size());
  refresh_client_record(e.frame.data() + e.frame_client, client.size(), rng);
  if (e.frame_server != 0) {
    refresh_server_record(e.frame.data() + e.frame_server,
                          e.capture.server.size(), rng);
  }
  const std::size_t payload_len = e.frame.size() -
                                  tls::daemon::kFrameHeaderBytes -
                                  tls::daemon::kFrameTrailerBytes;
  std::uint64_t sum = tls::daemon::frame_checksum(
      tls::daemon::FrameType::kCapture,
      {e.frame.data() + tls::daemon::kFrameHeaderBytes, payload_len});
  for (std::size_t b = 0; b < 8; ++b) {
    e.frame[e.frame.size() - 1 - b] = static_cast<std::uint8_t>(sum);
    sum >>= 8;
  }
  return fnv1a64(client);
}

}  // namespace perfbench
