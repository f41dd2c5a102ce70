#include "wire/buffer.hpp"

#include <stdexcept>

namespace tls::wire {

std::string_view parse_error_code_name(ParseErrorCode c) {
  switch (c) {
    case ParseErrorCode::kTruncated: return "truncated";
    case ParseErrorCode::kTrailingBytes: return "trailing-bytes";
    case ParseErrorCode::kBadLength: return "bad-length";
    case ParseErrorCode::kBadValue: return "bad-value";
    case ParseErrorCode::kUnsupported: return "unsupported";
  }
  return "unknown";
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  const std::uint16_t v = load_u16(data_.data() + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u24() {
  need(3);
  const std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) << 16 |
                          static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
                          data_[pos_ + 2];
  pos_ += 3;
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  const std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) << 24 |
                          static_cast<std::uint32_t>(data_[pos_ + 1]) << 16 |
                          static_cast<std::uint32_t>(data_[pos_ + 2]) << 8 |
                          data_[pos_ + 3];
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = v << 8 | data_[pos_ + static_cast<std::size_t>(i)];
  }
  pos_ += 8;
  return v;
}

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n) {
  need(n);
  auto s = data_.subspan(pos_, n);
  pos_ += n;
  return s;
}

std::span<const std::uint8_t> ByteReader::length_prefixed_u8() {
  return bytes(u8());
}

std::span<const std::uint8_t> ByteReader::length_prefixed_u16() {
  return bytes(u16());
}

std::span<const std::uint8_t> ByteReader::length_prefixed_u24() {
  return bytes(u24());
}

std::vector<std::uint16_t> ByteReader::u16_list_u16len() {
  std::vector<std::uint16_t> out;
  u16_list_u16len(out);
  return out;
}

void ByteReader::u16_list_u16len(std::vector<std::uint16_t>& out) {
  const auto raw = length_prefixed_u16();
  if (raw.size() % 2 != 0) {
    throw ParseError(ParseErrorCode::kBadLength,
                     "u16 list has odd byte count " +
                         std::to_string(raw.size()));
  }
  out.resize(raw.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = load_u16(raw.data() + 2 * i);
  }
}

void ByteReader::expect_empty(const char* context) const {
  if (!empty()) {
    throw ParseError(ParseErrorCode::kTrailingBytes,
                     std::string(context) + ": " +
                         std::to_string(remaining()) + " bytes left");
  }
}

void ByteWriter::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u24(std::uint32_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 16));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 24));
  out_.push_back(static_cast<std::uint8_t>(v >> 16));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void ByteWriter::bytes(std::span<const std::uint8_t> b) {
  out_.insert(out_.end(), b.begin(), b.end());
}

ByteWriter::LengthScope::LengthScope(ByteWriter& w, int prefix_bytes)
    : w_(w), at_(w.out_.size()), prefix_bytes_(prefix_bytes) {
  for (int i = 0; i < prefix_bytes_; ++i) w_.out_.push_back(0);
  ++w_.open_scopes_;
}

ByteWriter::LengthScope::~LengthScope() {
  --w_.open_scopes_;
  const std::size_t len =
      w_.out_.size() - at_ - static_cast<std::size_t>(prefix_bytes_);
  for (int i = 0; i < prefix_bytes_; ++i) {
    w_.out_[at_ + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
        len >> (8 * (prefix_bytes_ - 1 - i)));
  }
}

std::vector<std::uint8_t> ByteWriter::take() {
  if (open_scopes_ != 0) {
    throw std::logic_error(
        "ByteWriter::take() while a LengthScope is still open");
  }
  return std::move(out_);
}

void ByteWriter::u16_list_u16len(std::span<const std::uint16_t> values) {
  u16(static_cast<std::uint16_t>(values.size() * 2));
  for (const auto v : values) u16(v);
}

}  // namespace tls::wire
