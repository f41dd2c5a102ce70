#include "fingerprint/fingerprint.hpp"

#include <span>

#include "fingerprint/md5.hpp"
#include "tlscore/grease.hpp"

namespace tls::fp {

namespace {

/// The plain digit writer behind every fingerprint string: `v` in decimal.
void append_decimal(std::string& out, unsigned v) {
  char digits[10];
  char* const end = digits + sizeof(digits);
  char* p = end;
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  out.append(p, end);
}

/// Appends "v1-v2-..." (nothing for an empty list).
template <typename T>
void append_list(std::string& out, std::span<const T> vals) {
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (i != 0) out.push_back('-');
    append_decimal(out, vals[i]);
  }
}

std::vector<std::uint16_t> strip_grease(std::vector<std::uint16_t> vals) {
  std::erase_if(vals, [](std::uint16_t v) { return tls::core::is_grease(v); });
  return vals;
}

}  // namespace

void Fingerprint::append_canonical(std::string& out) const {
  append_list<std::uint16_t>(out, cipher_suites);
  out.push_back(',');
  append_list<std::uint16_t>(out, extensions);
  out.push_back(',');
  append_list<std::uint16_t>(out, groups);
  out.push_back(',');
  append_list<std::uint8_t>(out, ec_point_formats);
}

std::string Fingerprint::canonical() const {
  std::string out;
  // Each id renders as at most 5 digits plus a separator; reserving up front
  // keeps this to a single allocation.
  out.reserve(6 * (cipher_suites.size() + extensions.size() + groups.size() +
                   ec_point_formats.size()) +
              3);
  append_canonical(out);
  return out;
}

std::string Fingerprint::hash() const { return Md5::hex(canonical()); }

Fingerprint extract_fingerprint(const tls::wire::ClientHello& hello) {
  Fingerprint fp;
  fp.cipher_suites = strip_grease(hello.cipher_suites);
  fp.extensions.reserve(hello.extensions.size());
  for (const auto& e : hello.extensions) {
    if (!tls::core::is_grease(e.type)) fp.extensions.push_back(e.type);
  }
  if (auto groups = hello.supported_groups()) {
    fp.groups = strip_grease(std::move(*groups));
  }
  if (auto formats = hello.ec_point_formats()) {
    fp.ec_point_formats = std::move(*formats);
  }
  return fp;
}

std::string ja3_string(const tls::wire::ClientHello& hello) {
  const Fingerprint fp = extract_fingerprint(hello);
  std::string out;
  out.reserve(8 + 6 * (fp.cipher_suites.size() + fp.extensions.size() +
                       fp.groups.size() + fp.ec_point_formats.size()));
  append_decimal(out, hello.legacy_version);
  out.push_back(',');
  fp.append_canonical(out);
  return out;
}

std::string ja3_hash(const tls::wire::ClientHello& hello) {
  return Md5::hex(ja3_string(hello));
}

std::string extended_fingerprint_string(const tls::wire::ClientHello& hello) {
  std::string out;
  append_decimal(out, hello.legacy_version);
  out.push_back('|');
  extract_fingerprint(hello).append_canonical(out);
  out.push_back('|');
  append_list<std::uint8_t>(out, hello.compression_methods);
  out.push_back('|');
  const auto* sig = tls::wire::find_extension(
      hello.extensions, tls::core::ExtensionType::kSignatureAlgorithms);
  if (sig != nullptr) {
    append_list<std::uint16_t>(out,
                               tls::wire::parse_signature_algorithms(sig->body));
  }
  return out;
}

std::string extended_fingerprint_hash(const tls::wire::ClientHello& hello) {
  return Md5::hex(extended_fingerprint_string(hello));
}

}  // namespace tls::fp
