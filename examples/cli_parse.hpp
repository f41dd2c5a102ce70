// Checked numeric parsing for the example CLIs. Kept header-only and
// dependency-free so tests can include it directly: the alternative —
// testing through the built binary — couples the suite to install paths.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace tls::cli {

/// Strict decimal parse for CLI numbers: the whole argument must be an
/// integer in [min, max]. Returns false (leaving *out untouched) on null or
/// empty input, trailing junk, overflow, or range violation — callers route
/// that to usage() instead of letting atol's silent 0 (or a negative) flow
/// into RunJournal's group-commit config.
inline bool parse_long(const char* s, long min, long max, long* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < min || v > max) {
    return false;
  }
  *out = v;
  return true;
}

/// parse_long for the value of `tool`'s flag `flag`: a bad value prints
/// "<tool>: bad value for <flag>: <text> (want <min>..<max>)" and exits 2.
inline long parse_flag(const char* tool, const char* flag, const char* text,
                       long min, long max) {
  long v = 0;
  if (!parse_long(text, min, max, &v)) {
    std::fprintf(stderr, "%s: bad value for %s: %s (want %ld..%ld)\n", tool,
                 flag, text == nullptr ? "" : text, min, max);
    std::exit(2);
  }
  return v;
}

}  // namespace tls::cli
