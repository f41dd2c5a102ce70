// The repository's two seeded byte hashes, both built on the FNV-64
// constants:
//  - fnv1a64, byte at a time: checksums journal frames, checkpoint
//    manifests and flight-recorder dumps, and routes daemon captures to
//    shards, so every one of those formats depends on its exact output.
//  - word_hash64, eight bytes per step: the daemon wire trailer
//    (frame_checksum) and the key hash of the monitor's fingerprint memo.
//    The trailer is a wire format, so its output is fixed too.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

namespace tls::core {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a-64 of `bytes`, starting from `seed`. Passing a previous result
/// as the seed hashes a byte stream that arrives in pieces.
[[nodiscard]] inline std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                                           std::uint64_t seed = kFnvOffset) {
  std::uint64_t h = seed;
  for (const auto b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// Word-at-a-time hash of `bytes` from `seed`: one FNV-1a step per
/// little-endian 8-byte word, rotated so high bits feed back low. Each step
/// is a bijection of the state, so a corruption confined to one word always
/// changes the result. The tail word carries its byte count in its top
/// byte, and murmur3's fmix64 spreads the last word over every bit. The
/// full length is not mixed in; callers put it in `seed`.
[[nodiscard]] inline std::uint64_t word_hash64(
    std::span<const std::uint8_t> bytes, std::uint64_t seed) {
  const auto step = [](std::uint64_t h, std::uint64_t w) {
    return std::rotl((h ^ w) * kFnvPrime, 29);
  };
  // A memcpy into a word compiles to one 8-byte load; a shift-or byte
  // loop is not merged and runs no faster than FNV-1a.
  const auto load_le64 = [](const std::uint8_t* p) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, sizeof(w));
    if constexpr (std::endian::native == std::endian::big) {
      w = __builtin_bswap64(w);
    }
    return w;
  };
  const std::uint8_t* p = bytes.data();
  const std::size_t len = bytes.size();
  std::uint64_t h = seed;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) h = step(h, load_le64(p + i));
  const std::size_t k = len - i;
  std::uint64_t tail = 0;  // the last k < 8 bytes, little-endian
  for (std::size_t j = k; j-- > 0;) tail = (tail << 8) | p[i + j];
  h = step(h ^ (static_cast<std::uint64_t>(k) << 56), tail);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace tls::core
