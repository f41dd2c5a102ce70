// Names left over from the byte-keyed observe cache, which is gone
// (DESIGN.md §10): on realistic traffic every record carries a fresh
// random, so a cache keyed on record bytes never hit and only cost
// throughput. The frozen benchmark under perfbench/ still compiles against
// these names, so they stay as inert shims until the benchmark drops them.
#pragma once

#include <cstdint>
#include <span>

#include "tlscore/fnv.hpp"

namespace tls::notary {

/// Kept for `perfbench/` until the next `[benchmark]` PR. Always zero.
struct ObserveCacheStats {
  struct Side {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  Side client;
  Side server;
};

/// Kept for `perfbench/` until the next `[benchmark]` PR.
struct ObserveCache {
  /// Kept for `perfbench/` until the next `[benchmark]` PR: the shared
  /// FNV-1a-64, which also routes daemon captures to shards.
  static std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
    return tls::core::fnv1a64(bytes);
  }
};

}  // namespace tls::notary
