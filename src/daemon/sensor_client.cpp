#include "daemon/sensor_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "telemetry/stopwatch.hpp"

namespace tls::daemon {

bool SensorClient::connect(const std::string& host, std::uint16_t port) {
  close();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return false;
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close();
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  decoder_ = FrameDecoder();
  credits_ = CreditClient();
  return true;
}

void SensorClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void SensorClient::close_gracefully() {
  if (connected() && ::shutdown(fd_, SHUT_WR) == 0) {
    const std::uint64_t deadline_us =
        tls::telemetry::now_us() + std::uint64_t{kQueryDeadlineMs} * 1000;
    // poll() turns false at the daemon's EOF.
    for (std::uint64_t now = tls::telemetry::now_us();
         now < deadline_us &&
         poll(static_cast<int>((deadline_us - now + 999) / 1000));
         now = tls::telemetry::now_us()) {
    }
  }
  close();
}

bool SensorClient::send(std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const auto n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool SensorClient::poll(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  ::poll(&pfd, 1, timeout_ms);  // a negative fd is ignored: a plain wait
  return connected() && drain();
}

bool SensorClient::drain() {
  std::uint8_t buf[16384];
  for (;;) {
    const auto n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    for (auto& frame : decoder_.feed({buf, static_cast<std::size_t>(n)})) {
      if (frame.type == FrameType::kCreditGrant) {
        if (const auto grant = decode_credit_grant(frame.payload)) {
          credits_.on_grant(*grant);
        }
      } else if (frame.type == awaited_ && !reply_) {
        reply_.emplace(frame.payload.begin(), frame.payload.end());
      }
    }
    if (decoder_.poisoned()) return false;
  }
}

std::optional<std::string> SensorClient::query(FrameType request) {
  const auto reply_type = reply_for(request);
  if (!reply_type) return std::nullopt;
  awaited_ = reply_type;
  reply_.reset();
  bool alive = send(encode_frame(request, {}));
  const std::uint64_t deadline_us =
      tls::telemetry::now_us() + std::uint64_t{kQueryDeadlineMs} * 1000;
  for (std::uint64_t now = tls::telemetry::now_us();
       alive && !reply_ && now < deadline_us; now = tls::telemetry::now_us()) {
    alive = poll(static_cast<int>((deadline_us - now + 999) / 1000));
  }
  awaited_.reset();
  // A late reply would be read as the answer to the next query, so a
  // failed query gives up the connection.
  if (!reply_) close();
  return std::exchange(reply_, std::nullopt);
}

}  // namespace tls::daemon
