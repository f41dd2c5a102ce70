// TLS client fingerprinting per the paper's §4 methodology: a fingerprint is
// the concatenation of four ClientHello features, in the order they appear
// on the wire, with GREASE values removed:
//   (i)   the cipher-suite list,
//   (ii)  the extension-type list,
//   (iii) the supported groups (elliptic curves),
//   (iv)  the EC point formats.
// The canonical text form mirrors JA3's "field,field-field" layout so hashes
// are stable and human-diffable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wire/client_hello.hpp"

namespace tls::fp {

struct Fingerprint {
  std::vector<std::uint16_t> cipher_suites;
  std::vector<std::uint16_t> extensions;
  std::vector<std::uint16_t> groups;
  std::vector<std::uint8_t> ec_point_formats;

  /// Canonical text: "c1-c2-...,e1-e2-...,g1-...,f1-..." (decimal values).
  [[nodiscard]] std::string canonical() const;
  /// Appends canonical() to `out`: the one writer of the canonical text,
  /// shared by JA3, the extended fingerprint and the fingerprint memo's
  /// miss scratch.
  void append_canonical(std::string& out) const;

  /// MD5 of canonical(), lowercase hex — the database key.
  [[nodiscard]] std::string hash() const;

  /// True if any (registered, non-SCSV) offered suite satisfies pred —
  /// the Fig. 4 "fingerprints with support for X" relation.
  template <typename Pred>
  [[nodiscard]] bool offers(Pred&& pred) const {
    for (const auto id : cipher_suites) {
      const auto* info = tls::core::find_cipher_suite(id);
      if (info != nullptr && !info->scsv && pred(*info)) return true;
    }
    return false;
  }

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Extracts the fingerprint from a parsed ClientHello, stripping GREASE
/// from every field (§4). SCSVs are kept: they are stable client signals.
Fingerprint extract_fingerprint(const tls::wire::ClientHello& hello);

/// JA3 string (adds the client version and keeps JA3's field order) — for
/// interoperability with external fingerprint corpora. GREASE stripped.
std::string ja3_string(const tls::wire::ClientHello& hello);
std::string ja3_hash(const tls::wire::ClientHello& hello);

/// The richer fingerprint of prior work ([22, 45] in the paper): the §4
/// features plus client version, compression methods, and signature
/// algorithms. §4 quantifies the cost of the restricted feature set:
/// prior-work fingerprints collide at 2.4%; restricted to the paper's
/// features the rate rises to 7.3%. extended_fingerprint_string() is the
/// canonical form of the richer variant; see bench_sec4_collisions.
std::string extended_fingerprint_string(const tls::wire::ClientHello& hello);
std::string extended_fingerprint_hash(const tls::wire::ClientHello& hello);

}  // namespace tls::fp
