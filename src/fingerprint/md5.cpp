#include "fingerprint/md5.hpp"

#include <cstring>
#include <stdexcept>

namespace tls::fp {

namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                    0x10325476u};

constexpr std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

// RFC 1321 §3.4's four round functions and its step
// a = b + ((a + F(b,c,d) + X[k] + T[i]) <<< s).
constexpr std::uint32_t F(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (x & y) | (~x & z);
}
constexpr std::uint32_t G(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (x & z) | (y & ~z);
}
constexpr std::uint32_t H(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return x ^ y ^ z;
}
constexpr std::uint32_t I(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return y ^ (x | ~z);
}

template <std::uint32_t (*Round)(std::uint32_t, std::uint32_t, std::uint32_t)>
inline void step(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d, std::uint32_t x, std::uint32_t t, int s) {
  a = b + rotl(a + Round(b, c, d) + x + t, s);
}

/// Lowercase hex of `bytes` into `out`, replacing its contents.
void write_hex(std::span<const std::uint8_t> bytes, std::string& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.resize(bytes.size() * 2);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out[2 * i] = kHex[bytes[i] >> 4];
    out[2 * i + 1] = kHex[bytes[i] & 0xf];
  }
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
  std::uint32_t x[16];
  for (int i = 0; i < 16; ++i) {
    x[i] = static_cast<std::uint32_t>(block[i * 4]) |
           static_cast<std::uint32_t>(block[i * 4 + 1]) << 8 |
           static_cast<std::uint32_t>(block[i * 4 + 2]) << 16 |
           static_cast<std::uint32_t>(block[i * 4 + 3]) << 24;
  }
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  // Round 1.
  step<F>(a, b, c, d, x[0], 0xd76aa478, 7);
  step<F>(d, a, b, c, x[1], 0xe8c7b756, 12);
  step<F>(c, d, a, b, x[2], 0x242070db, 17);
  step<F>(b, c, d, a, x[3], 0xc1bdceee, 22);
  step<F>(a, b, c, d, x[4], 0xf57c0faf, 7);
  step<F>(d, a, b, c, x[5], 0x4787c62a, 12);
  step<F>(c, d, a, b, x[6], 0xa8304613, 17);
  step<F>(b, c, d, a, x[7], 0xfd469501, 22);
  step<F>(a, b, c, d, x[8], 0x698098d8, 7);
  step<F>(d, a, b, c, x[9], 0x8b44f7af, 12);
  step<F>(c, d, a, b, x[10], 0xffff5bb1, 17);
  step<F>(b, c, d, a, x[11], 0x895cd7be, 22);
  step<F>(a, b, c, d, x[12], 0x6b901122, 7);
  step<F>(d, a, b, c, x[13], 0xfd987193, 12);
  step<F>(c, d, a, b, x[14], 0xa679438e, 17);
  step<F>(b, c, d, a, x[15], 0x49b40821, 22);

  // Round 2.
  step<G>(a, b, c, d, x[1], 0xf61e2562, 5);
  step<G>(d, a, b, c, x[6], 0xc040b340, 9);
  step<G>(c, d, a, b, x[11], 0x265e5a51, 14);
  step<G>(b, c, d, a, x[0], 0xe9b6c7aa, 20);
  step<G>(a, b, c, d, x[5], 0xd62f105d, 5);
  step<G>(d, a, b, c, x[10], 0x02441453, 9);
  step<G>(c, d, a, b, x[15], 0xd8a1e681, 14);
  step<G>(b, c, d, a, x[4], 0xe7d3fbc8, 20);
  step<G>(a, b, c, d, x[9], 0x21e1cde6, 5);
  step<G>(d, a, b, c, x[14], 0xc33707d6, 9);
  step<G>(c, d, a, b, x[3], 0xf4d50d87, 14);
  step<G>(b, c, d, a, x[8], 0x455a14ed, 20);
  step<G>(a, b, c, d, x[13], 0xa9e3e905, 5);
  step<G>(d, a, b, c, x[2], 0xfcefa3f8, 9);
  step<G>(c, d, a, b, x[7], 0x676f02d9, 14);
  step<G>(b, c, d, a, x[12], 0x8d2a4c8a, 20);

  // Round 3.
  step<H>(a, b, c, d, x[5], 0xfffa3942, 4);
  step<H>(d, a, b, c, x[8], 0x8771f681, 11);
  step<H>(c, d, a, b, x[11], 0x6d9d6122, 16);
  step<H>(b, c, d, a, x[14], 0xfde5380c, 23);
  step<H>(a, b, c, d, x[1], 0xa4beea44, 4);
  step<H>(d, a, b, c, x[4], 0x4bdecfa9, 11);
  step<H>(c, d, a, b, x[7], 0xf6bb4b60, 16);
  step<H>(b, c, d, a, x[10], 0xbebfbc70, 23);
  step<H>(a, b, c, d, x[13], 0x289b7ec6, 4);
  step<H>(d, a, b, c, x[0], 0xeaa127fa, 11);
  step<H>(c, d, a, b, x[3], 0xd4ef3085, 16);
  step<H>(b, c, d, a, x[6], 0x04881d05, 23);
  step<H>(a, b, c, d, x[9], 0xd9d4d039, 4);
  step<H>(d, a, b, c, x[12], 0xe6db99e5, 11);
  step<H>(c, d, a, b, x[15], 0x1fa27cf8, 16);
  step<H>(b, c, d, a, x[2], 0xc4ac5665, 23);

  // Round 4.
  step<I>(a, b, c, d, x[0], 0xf4292244, 6);
  step<I>(d, a, b, c, x[7], 0x432aff97, 10);
  step<I>(c, d, a, b, x[14], 0xab9423a7, 15);
  step<I>(b, c, d, a, x[5], 0xfc93a039, 21);
  step<I>(a, b, c, d, x[12], 0x655b59c3, 6);
  step<I>(d, a, b, c, x[3], 0x8f0ccc92, 10);
  step<I>(c, d, a, b, x[10], 0xffeff47d, 15);
  step<I>(b, c, d, a, x[1], 0x85845dd1, 21);
  step<I>(a, b, c, d, x[8], 0x6fa87e4f, 6);
  step<I>(d, a, b, c, x[15], 0xfe2ce6e0, 10);
  step<I>(c, d, a, b, x[6], 0xa3014314, 15);
  step<I>(b, c, d, a, x[13], 0x4e0811a1, 21);
  step<I>(a, b, c, d, x[4], 0xf7537e82, 6);
  step<I>(d, a, b, c, x[11], 0xbd3af235, 10);
  step<I>(c, d, a, b, x[2], 0x2ad7d2bb, 15);
  step<I>(b, c, d, a, x[9], 0xeb86d391, 21);

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
  std::string out;
  hex_into(text, out);
  return out;
}

void Md5::hex_into(std::string_view text, std::string& out) {
  Md5 h;
  h.update(text);
  write_hex(h.digest(), out);
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  write_hex(bytes, out);
  return out;
}

}  // namespace tls::fp
