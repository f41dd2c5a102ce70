#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>

#include "daemon/protocol.hpp"
#include "reference.hpp"
#include "tlscore/rng.hpp"

namespace perfbench {
namespace {

using tls::daemon::FrameType;

/// Sensor connections; connection c sends the months of parity c.
constexpr std::size_t kConnections = 2;

std::uint64_t to_ns(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

/// One sensor connection: socket, decoder, credit mirror, send buffer and
/// the FIFO ledger of its in-flight captures.
struct Sensor {
  int fd = -1;
  tls::daemon::FrameDecoder decoder;
  tls::daemon::CreditClient credits;
  bool window_seen = false;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  AckMatcher matcher;
  std::deque<std::uint64_t> pending;  // due times waiting for credit
  std::size_t pending_stalled = 0;    // leading `pending` entries booked stalled
  std::vector<std::size_t> lane;
  std::size_t cursor = 0;
  tls::core::Rng rng;

  Sensor() = default;
  Sensor(const Sensor&) = delete;
  Sensor& operator=(const Sensor&) = delete;
  ~Sensor() {
    if (fd >= 0) ::close(fd);
  }

  bool open(std::uint16_t port, std::string& error) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      error = std::string("connect: ") + std::strerror(errno);
      return false;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  /// Reads whatever is pending. Returns the credits granted after the
  /// initial window (those resolve sent captures); -1 on a dead peer.
  long read_grants() {
    std::uint8_t buf[16384];
    long returned = 0;
    for (;;) {
      const auto n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) return -1;
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return returned;
        if (errno == EINTR) continue;
        return -1;
      }
      for (const auto& frame :
           decoder.feed({buf, static_cast<std::size_t>(n)})) {
        if (frame.type != FrameType::kCreditGrant) continue;
        const auto grant = tls::daemon::decode_credit_grant(frame.payload);
        if (!grant) return -1;
        credits.on_grant(*grant);
        if (window_seen) {
          returned += *grant;
        } else {
          window_seen = true;
        }
      }
      if (decoder.poisoned()) return -1;
    }
  }

  /// Non-blocking write of the send buffer; false on a dead peer.
  bool flush() {
    while (out_off < out.size()) {
      const auto n = ::send(fd, out.data() + out_off, out.size() - out_off,
                            MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    out.clear();
    out_off = 0;
    return true;
  }
};

}  // namespace

LoadgenResult run_loadgen(CapturePool& pool, const LoadgenConfig& config) {
  LoadgenResult result;
  const auto fail = [&](const std::string& why) {
    result.ok = false;
    result.error = why;
    return result;
  };
  const std::size_t n_conn = kConnections;
  std::vector<std::unique_ptr<Sensor>> sensors;
  for (std::size_t c = 0; c < n_conn; ++c) {
    auto s = std::make_unique<Sensor>();
    s->lane = pool.lane(c);
    if (s->lane.empty()) return fail("capture pool has no entry for lane");
    s->rng = tls::core::Rng(tls::core::rng_stream_seed(config.seed, 0xdae, c));
    if (!s->open(config.port, result.error)) return fail(result.error);
    sensors.push_back(std::move(s));
  }
  if (config.keep_frames) result.frames.resize(n_conn);

  // Wait for every initial credit window.
  const std::uint64_t open_deadline = now_ns() + to_ns(10);
  for (auto& s : sensors) {
    while (!s->window_seen) {
      if (s->read_grants() < 0) return fail("daemon closed the connection");
      if (now_ns() > open_deadline) return fail("no initial credit window");
      pollfd pfd{s->fd, POLLIN, 0};
      ::poll(&pfd, 1, 10);
    }
  }

  // ---- the cycle timeline ----
  const bool capped_run = config.max_captures != 0;
  const std::uint64_t settle = to_ns(config.settle_s);
  const std::uint64_t measured_end = settle + to_ns(config.paced_s);
  const std::uint64_t cycle =
      std::max<std::uint64_t>(1, measured_end + to_ns(config.saturation_s));
  const int cycles = std::max(1, config.cycles);
  const std::uint64_t t0 = now_ns();
  const std::uint64_t t_end =
      capped_run ? t0 + to_ns(60) : t0 + cycle * static_cast<std::uint64_t>(cycles);
  enum class Mode { kPaced, kSaturation };
  struct Position {
    Mode mode;
    int sample;  // cycle index inside a measured paced window, else -1
    int cycle;
  };
  const auto position = [&](std::uint64_t t) {
    if (capped_run) return Position{Mode::kSaturation, -1, 0};
    const std::uint64_t rel = t - t0;
    const auto k = static_cast<int>(rel / cycle);
    const std::uint64_t pos = rel % cycle;
    if (pos >= measured_end) return Position{Mode::kSaturation, -1, k};
    return Position{Mode::kPaced, pos >= settle ? k : -1, k};
  };
  result.ack_latency_us.resize(static_cast<std::size_t>(cycles));
  result.sat_acked.assign(static_cast<std::size_t>(cycles), 0);


  const double interval_ns =
      static_cast<double>(n_conn) * 1e9 / std::max(config.paced_rate, 1.0);
  std::vector<double> next_due(n_conn, 0);
  Mode last_mode = Mode::kSaturation;
  int phase_called = -1;
  const auto phase_hook = [&](int phase) {
    if (phase_called < phase && config.on_phase) config.on_phase(phase);
    phase_called = std::max(phase_called, phase);
  };
  bool threads_sampled = false;
  std::vector<pollfd> pfds(n_conn);
  // Sleeps between paced sends are a few microseconds; the default 50 us
  // timer slack would make every one of them late.
  const auto timer_slack = static_cast<unsigned long>(::prctl(PR_GET_TIMERSLACK));
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  const auto expected = static_cast<std::size_t>(
      config.paced_rate * (config.settle_s + config.paced_s) * cycles +
      500000 * config.saturation_s * cycles);
  const std::size_t reserve =
      capped_run ? static_cast<std::size_t>(config.max_captures)
                 : std::min<std::size_t>(expected, 50'000'000);
  result.record_keys.reserve(reserve);
  result.lateness_us.reserve(reserve);
  const auto capped = [&] {
    return capped_run && result.scheduled >= config.max_captures;
  };

  for (;;) {
    // ---- credits back from the daemon ----
    bool activity = false;
    for (auto& s : sensors) {
      const long returned = s->read_grants();
      if (returned < 0) return fail("daemon closed the connection");
      if (returned == 0) continue;
      activity = true;
      const std::uint64_t now = now_ns();
      const std::size_t resolved = s->matcher.ack(
          static_cast<std::uint32_t>(returned), now, result.ack_latency_us);
      result.acked += resolved;
      ++result.grant_frames;
      result.granted += static_cast<std::uint64_t>(returned);
      const Position at = position(now);
      if (!capped_run && now < t_end && at.mode == Mode::kSaturation) {
        result.sat_acked[static_cast<std::size_t>(at.cycle)] += resolved;
      }
    }

    const std::uint64_t now = now_ns();
    if (now >= t_end || (capped() && result.sent == result.scheduled)) break;
    const Position at = position(now);
    const bool paced = at.mode == Mode::kPaced;
    if (paced && last_mode != Mode::kPaced) {
      // A paced window opens: its schedule starts now, staggered per
      // connection.
      for (std::size_t c = 0; c < n_conn; ++c) {
        next_due[c] = static_cast<double>(now) +
                      interval_ns * static_cast<double>(c) /
                          static_cast<double>(n_conn);
      }
    }
    last_mode = at.mode;
    if (config.reference && !capped_run &&
        result.cycle_reference_ns.size() <= static_cast<std::size_t>(at.cycle)) {
      result.cycle_reference_ns.push_back(reference_ns(3));
    }
    if (at.cycle == 0 && at.sample == 0) phase_hook(0);
    if (at.cycle == 0 && !paced) phase_hook(1);
    if (at.cycle >= 1) phase_hook(2);
    if (!paced && !threads_sampled &&
        (now - t0) % cycle >= measured_end + (cycle - measured_end) / 2) {
      result.threads_seen = process_threads();
      threads_sampled = true;
    }

    // ---- schedule ----
    for (std::size_t c = 0; c < n_conn; ++c) {
      auto& s = *sensors[c];
      if (paced) {
        while (next_due[c] <= static_cast<double>(now)) {
          const auto due = static_cast<std::uint64_t>(next_due[c]);
          s.pending.push_back(due);
          ++result.scheduled;
          if (position(due).sample >= 0) ++result.paced_due;
          next_due[c] += interval_ns;
        }
      } else {
        while (s.credits.available() > s.pending.size() && !capped()) {
          s.pending.push_back(now);
          ++result.scheduled;
        }
      }
    }

    // ---- send what has credit ----
    for (std::size_t c = 0; c < n_conn; ++c) {
      auto& s = *sensors[c];
      const auto book_stalls = [&] {
        // Whatever is still pending waits for credit.
        for (std::size_t i = s.pending_stalled; i < s.pending.size(); ++i) {
          if (position(s.pending[i]).sample >= 0) ++result.stalled;
        }
        s.pending_stalled = s.pending.size();
      };
      if (s.pending.empty() || s.credits.available() == 0) {
        book_stalls();
        continue;
      }
      activity = true;
      Span encode(config.tracer, "loadgen.encode", 0, c);
      const std::uint64_t e0 = now_ns();
      while (!s.pending.empty() && s.credits.try_send()) {
        const std::uint64_t due = s.pending.front();
        s.pending.pop_front();
        const bool was_stalled = s.pending_stalled > 0;
        if (was_stalled) --s.pending_stalled;
        const std::size_t idx = s.lane[s.cursor++ % s.lane.size()];
        if (const auto key = pool.refresh_frame(idx, s.rng)) {
          result.record_keys.push_back(*key);
        }
        const auto& frame = pool.at(idx).frame;
        s.out.insert(s.out.end(), frame.begin(), frame.end());
        if (config.keep_frames) result.frames[c].push_back(frame);
        const int sample = position(due).sample;
        s.matcher.sent(due, sample);
        if (sample >= 0 && !was_stalled) {
          result.lateness_us.push_back(now > due ? ns_to_us(now - due) : 0.0);
        }
        ++result.sent;
        ++result.encoded;
      }
      result.encode_ns += static_cast<double>(now_ns() - e0);
      encode.end();
      book_stalls();
      Span send(config.tracer, "loadgen.send", 0, c);
      if (!s.flush()) return fail("send failed");
    }
    if (!activity) {
      // Nothing sent and nothing returned: sleep until the next send is
      // due or a credit arrives.
      double wake = static_cast<double>(std::min(t_end, now + 1'000'000));
      if (paced) {
        for (std::size_t c = 0; c < n_conn; ++c) {
          if (sensors[c]->pending.empty()) wake = std::min(wake, next_due[c]);
        }
      }
      const double wait_ns =
          std::max(0.0, wake - static_cast<double>(now_ns()));
      const timespec timeout{0, static_cast<long>(wait_ns)};
      for (std::size_t c = 0; c < n_conn; ++c) {
        pfds[c] = {sensors[c]->fd,
                   static_cast<short>(POLLIN |
                                      (sensors[c]->out.empty() ? 0 : POLLOUT)),
                   0};
      }
      ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    }
  }
  ::prctl(PR_SET_TIMERSLACK, timer_slack);
  if (config.reference && !capped_run) {
    result.cycle_reference_ns.push_back(reference_ns(3));
  }

  // ---- drain: every sent capture must come back as a credit ----
  const std::uint64_t drain_deadline = now_ns() + to_ns(60);
  for (;;) {
    std::size_t in_flight = 0;
    for (auto& s : sensors) {
      if (!s->flush()) return fail("send failed during drain");
      const long returned = s->read_grants();
      if (returned < 0) return fail("daemon closed the connection");
      if (returned > 0) {
        result.acked += s->matcher.ack(static_cast<std::uint32_t>(returned),
                                       now_ns(), result.ack_latency_us);
        ++result.grant_frames;
        result.granted += static_cast<std::uint64_t>(returned);
      }
      in_flight += s->matcher.in_flight() + s->pending.size();
    }
    if (in_flight == 0) break;
    if (now_ns() > drain_deadline) return fail("captures never acknowledged");
    for (std::size_t c = 0; c < n_conn; ++c) {
      pfds[c] = {sensors[c]->fd, POLLIN, 0};
    }
    ::poll(pfds.data(), pfds.size(), 5);
  }
  for (auto& s : sensors) result.excess_credits += s->matcher.excess_credits();
  phase_hook(2);
  return result;
}

std::vector<double> saturation_rates(const LoadgenResult& result,
                                     const LoadgenConfig& config) {
  std::vector<double> rates;
  for (const auto acked : result.sat_acked) {
    rates.push_back(static_cast<double>(acked) / config.saturation_s);
  }
  return rates;
}

std::vector<Summary> latency_by_cycle(LoadgenResult& result) {
  std::vector<Summary> out;
  for (auto& samples : result.ack_latency_us) out.push_back(summarize(samples));
  return out;
}

}  // namespace perfbench
