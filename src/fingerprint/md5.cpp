#include "fingerprint/md5.hpp"

#include <cstring>
#include <stdexcept>

namespace tls::fp {

namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                    0x10325476u};

constexpr std::uint32_t K[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

constexpr int S[64] = {7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17,
                       22, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,
                       14, 20, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4,
                       11, 16, 23, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
                       6, 10, 15, 21};

constexpr std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

}  // namespace

Md5::Md5() { std::memcpy(state_.data(), kInit, sizeof(kInit)); }

void Md5::update(std::span<const std::uint8_t> data) {
  if (finalized_) throw std::logic_error("Md5 already finalized");
  total_len_ += data.size();
  std::size_t i = 0;
  if (buffer_len_ > 0) {
    const std::size_t take =
        std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    i = take;
    if (buffer_len_ == 64) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  for (; i + 64 <= data.size(); i += 64) process_block(data.data() + i);
  if (i < data.size()) {
    std::memcpy(buffer_.data(), data.data() + i, data.size() - i);
    buffer_len_ = data.size() - i;
  }
}

void Md5::update(std::string_view text) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::array<std::uint8_t, 16> Md5::digest() {
  if (finalized_) throw std::logic_error("Md5 already finalized");
  // RFC 1321 §3.1-3.2 as one update: 0x80, zeros up to 56 mod 64, then the
  // message length in bits as a little-endian u64.
  const std::uint64_t bit_len = total_len_ * 8;
  const std::size_t zeros = (buffer_len_ < 56 ? 55 : 119) - buffer_len_;
  std::uint8_t pad[72] = {0x80};
  for (std::size_t i = 0; i < 8; ++i) {
    pad[1 + zeros + i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  update(std::span<const std::uint8_t>(pad, 1 + zeros + 8));
  finalized_ = true;

  std::array<std::uint8_t, 16> out{};
  for (int i = 0; i < 4; ++i) {
    for (int b = 0; b < 4; ++b) {
      out[static_cast<std::size_t>(i * 4 + b)] =
          static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >>
                                    (8 * b));
    }
  }
  return out;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[i * 4]) |
           static_cast<std::uint32_t>(block[i * 4 + 1]) << 8 |
           static_cast<std::uint32_t>(block[i * 4 + 2]) << 16 |
           static_cast<std::uint32_t>(block[i * 4 + 3]) << 24;
  }
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  for (int i = 0; i < 64; ++i) {
    std::uint32_t f;
    int g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) % 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) % 16;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) % 16;
    }
    f = f + a + K[i] + m[g];
    a = d;
    d = c;
    c = b;
    b = b + rotl(f, S[i]);
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

std::array<std::uint8_t, 16> Md5::hash(std::span<const std::uint8_t> data) {
  Md5 h;
  h.update(data);
  return h.digest();
}

std::string Md5::hex(std::string_view text) {
  Md5 h;
  h.update(text);
  return to_hex(h.digest());
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const auto b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace tls::fp
