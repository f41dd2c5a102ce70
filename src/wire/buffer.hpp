// Bounds-checked big-endian readers and writers used by every codec.
// ByteReader is a non-owning cursor over a span; ByteWriter owns a vector
// and offers RAII length-prefix scopes so nested TLS vectors cannot get
// their length fields wrong.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wire/errors.hpp"

namespace tls::wire {

/// The big-endian u16 at `p`.
inline std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }
  [[nodiscard]] std::size_t position() const { return pos_; }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u24();
  std::uint32_t u32();
  std::uint64_t u64();

  /// Consumes exactly n bytes.
  std::span<const std::uint8_t> bytes(std::size_t n);

  /// Consumes an n-byte length prefix then that many bytes.
  std::span<const std::uint8_t> length_prefixed_u8();
  std::span<const std::uint8_t> length_prefixed_u16();
  std::span<const std::uint8_t> length_prefixed_u24();

  /// Reads a u16-length-prefixed vector of u16 values (the common TLS list
  /// shape for cipher suites / groups / versions). Throws kBadLength when
  /// the byte count is odd.
  std::vector<std::uint16_t> u16_list_u16len();
  /// u16_list_u16len into an existing vector, replacing its contents and
  /// keeping its capacity.
  void u16_list_u16len(std::vector<std::uint16_t>& out);

  /// Throws kTrailingBytes unless fully consumed.
  void expect_empty(const char* context) const;

 private:
  void need(std::size_t n) const {
    if (remaining() < n) {
      throw ParseError(ParseErrorCode::kTruncated,
                       "need " + std::to_string(n) + " bytes, have " +
                           std::to_string(remaining()));
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Adopts an existing buffer as backing storage (cleared, capacity kept)
  /// so hot paths can serialize without a fresh allocation; reclaim it with
  /// take().
  explicit ByteWriter(std::vector<std::uint8_t>&& buf)
      : out_(std::move(buf)) {
    out_.clear();
  }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u24(std::uint32_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> b);

  /// RAII scope that back-patches an n-byte big-endian length prefix
  /// covering everything written inside the scope. The writer must outlive
  /// the scope and must not be moved from (take()) while a scope is alive.
  class LengthScope {
   public:
    LengthScope(ByteWriter& w, int prefix_bytes);
    LengthScope(const LengthScope&) = delete;
    LengthScope& operator=(const LengthScope&) = delete;
    ~LengthScope();

   private:
    ByteWriter& w_;
    std::size_t at_;
    int prefix_bytes_;
  };

  [[nodiscard]] LengthScope u8_length_scope() { return {*this, 1}; }
  [[nodiscard]] LengthScope u16_length_scope() { return {*this, 2}; }
  [[nodiscard]] LengthScope u24_length_scope() { return {*this, 3}; }

  /// Writes a u16 length prefix followed by the u16 values.
  void u16_list_u16len(std::span<const std::uint16_t> values);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return out_; }
  /// Moves the buffer out. Throws std::logic_error while any LengthScope is
  /// still open — its destructor would otherwise patch a moved-from vector.
  std::vector<std::uint8_t> take();
  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::uint8_t> out_;
  int open_scopes_ = 0;
};

}  // namespace tls::wire
