// SensorClient — the client side of the daemon's frame protocol
// (DESIGN.md §16): one blocking TCP connection to a notary_daemon, the
// frame decoder for what the daemon sends back, and the credit window its
// grants open. Every tool that talks to the daemon (loadgen, tlstop,
// flight_dump) and the daemon's own end-to-end tests use this one class.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "daemon/protocol.hpp"

namespace tls::daemon {

/// How long query() waits for its reply before giving up.
inline constexpr int kQueryDeadlineMs = 5000;

class SensorClient {
 public:
  SensorClient() = default;
  ~SensorClient() { close(); }
  SensorClient(const SensorClient&) = delete;
  SensorClient& operator=(const SensorClient&) = delete;

  /// Connects to an IPv4 literal `host`, sets TCP_NODELAY and starts a
  /// fresh decoder and credit window. Any earlier connection is closed
  /// first. On failure no socket stays open and connected() is false.
  bool connect(const std::string& host, std::uint16_t port);
  void close();
  /// shutdown(SHUT_WR), read until the daemon's EOF (at most
  /// kQueryDeadlineMs), then close(): unlike a plain close() over unread
  /// grants, no reset discards frames the daemon has not read yet.
  void close_gracefully();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Blocking send of all of `bytes`, retried on EINTR. False on error.
  bool send(std::span<const std::uint8_t> bytes);

  /// Waits up to `timeout_ms` for input, then reads what is pending without
  /// blocking and applies every kCreditGrant to credits(). False on a dead
  /// peer or a poisoned decoder. A closed client only waits out the timeout
  /// and returns false.
  bool poll(int timeout_ms);

  [[nodiscard]] CreditClient& credits() { return credits_; }

  /// Sends the query frame `request` and returns the payload of its reply
  /// (reply_for(request)). Returns nothing, and closes the connection, on a
  /// dead peer, a poisoned decoder, or no reply within kQueryDeadlineMs.
  /// Returns nothing at once when `request` is not a query.
  std::optional<std::string> query(FrameType request);

 private:
  /// The non-blocking half of poll().
  bool drain();

  int fd_ = -1;
  FrameDecoder decoder_;
  CreditClient credits_;
  /// While a query waits: the reply type and, once it arrived, its payload.
  std::optional<FrameType> awaited_;
  std::optional<std::string> reply_;
};

}  // namespace tls::daemon
