#include "fingerprint/fingerprint.hpp"

#include <array>
#include <cstring>
#include <span>

#include "fingerprint/md5.hpp"
#include "tlscore/grease.hpp"

namespace tls::fp {

namespace {

/// "00".."99": the two digits of every value below 100.
constexpr auto kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

/// Decimal digits of `v`, for the u8/u16 values a fingerprint holds.
constexpr std::size_t decimal_width(unsigned v) {
  return 1 + std::size_t{v >= 10} + std::size_t{v >= 100} +
         std::size_t{v >= 1000} + std::size_t{v >= 10000};
}

/// Writes `v` in decimal so that its last digit lands just before `end`,
/// two digits per step.
void write_decimal(char* end, unsigned v) {
  while (v >= 100) {
    end -= 2;
    std::memcpy(end, &kDigitPairs[2 * (v % 100)], 2);
    v /= 100;
  }
  if (v >= 10) {
    std::memcpy(end - 2, &kDigitPairs[2 * v], 2);
  } else {
    end[-1] = static_cast<char>('0' + v);
  }
}

/// The one digit writer behind every fingerprint string: appends
/// "v1-v2-..." (nothing for an empty list). The string grows once, to the
/// exact text length, and the digits are written straight into its tail,
/// so a string that already has the capacity does not allocate.
template <typename T>
void append_list(std::string& out, std::span<const T> vals) {
  static_assert(sizeof(T) <= 2, "decimal_width covers values below 100000");
  if (vals.empty()) return;
  std::size_t length = vals.size() - 1;  // the separators
  for (const T v : vals) length += decimal_width(v);
  const std::size_t at = out.size();
  out.resize(at + length);
  char* p = out.data() + at;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (i != 0) *p++ = '-';
    p += decimal_width(vals[i]);
    write_decimal(p, vals[i]);
  }
}

void append_decimal(std::string& out, std::uint16_t v) {
  append_list<std::uint16_t>(out, std::span<const std::uint16_t>(&v, 1));
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
