// Self-contained MD5 (RFC 1321), used to produce JA3-compatible hash digests
// of fingerprint strings. MD5 is used here purely as a non-cryptographic
// identifier, exactly as the JA3 ecosystem does.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace tls::fp {

class Md5 {
 public:
  Md5();

  void update(std::span<const std::uint8_t> data);
  void update(std::string_view text);

  /// Finalizes and returns the 16-byte digest. The object must not be
  /// updated afterwards.
  std::array<std::uint8_t, 16> digest();

  /// One-shot helpers.
  static std::array<std::uint8_t, 16> hash(std::span<const std::uint8_t> data);
  static std::string hex(std::string_view text);
  /// hex() into an existing string, replacing its contents and keeping
  /// its capacity.
  static void hex_into(std::string_view text, std::string& out);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 4> state_;
  std::uint64_t total_len_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  bool finalized_ = false;
};

std::string to_hex(std::span<const std::uint8_t> bytes);

}  // namespace tls::fp
