// FNV-1a-64: the repository's one seedless byte hash. It checksums journal
// frames, checkpoint manifests and flight-recorder dumps, and routes daemon
// captures to shards, so every one of those formats depends on exactly
// these constants.
#pragma once

#include <cstdint>
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

}  // namespace tls::core
