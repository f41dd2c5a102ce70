#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "fingerprint/md5.hpp"

namespace tls::fp {
namespace {

// RFC 1321 appendix A.5 test suite.
TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(Md5::hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(Md5::hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz012"
                     "3456789"),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(Md5::hex("1234567890123456789012345678901234567890123456789012345"
                     "6789012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
  const std::string text =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in the incremental interface.";
  for (std::size_t chunk = 1; chunk <= 70; chunk += 7) {
    Md5 h;
    for (std::size_t i = 0; i < text.size(); i += chunk) {
      h.update(std::string_view(text).substr(i, chunk));
    }
    EXPECT_EQ(to_hex(h.digest()), Md5::hex(text)) << "chunk=" << chunk;
  }
}

// RFC 1321 §3.1-3.2 padding audit against digests from an independent MD5
// (GNU coreutils md5sum). 55/56/57 and 119/120 bytes decide whether the
// length fits the last block; 63/64/65 and 127/128 straddle a block
// boundary; 200 bytes and the repeated "abc" take several blocks. Each
// string is fed whole and split into two update calls at every offset from
// 1 to 64, so the block function and update()'s buffering are checked
// against the oracle, not against themselves.
TEST(Md5, BlockBoundaryLengths) {
  std::string abc;
  for (int i = 0; i < 100; ++i) abc += "abc";
  const std::pair<std::string, const char*> oracle[] = {
      {std::string(55, 'x'), "04364420e25c512fd958a70738aa8f72"},
      {std::string(56, 'x'), "668a72d5ba17f08e62dabcafad6db14b"},
      {std::string(57, 'x'), "693037871c4a9d3d8685018905cb530a"},
      {std::string(63, 'x'), "7dc2ca208106a2f703567bdff99d8981"},
      {std::string(64, 'x'), "c1bb4f81d892b2d57947682aeb252456"},
      {std::string(65, 'x'), "1bc932052302d074bdec39795fe00cf6"},
      {std::string(119, 'x'), "ab347a5f68c8a443cfcddc633f12c24f"},
      {std::string(120, 'x'), "fb98667f98096de92620b64f46e1c5b5"},
      {std::string(127, 'x'), "a0b28c1da68705c2ff883fe279b72753"},
      {std::string(128, 'x'), "d69cb61a6ee87200676eb0d4b90edbcb"},
      {std::string(200, 'x'), "30a83621ce5422fbdfdd539777458c78"},
      {std::string(64, 'a'), "014842d480b571495a4a0363793f7367"},
      {abc, "f571117acbd8153c8dc3c81b8817773a"},
  };
  for (const auto& [text, want] : oracle) {
    EXPECT_EQ(Md5::hex(text), want) << text.size();
    for (std::size_t split = 1; split <= 64 && split <= text.size();
         ++split) {
      const std::string_view v(text);
      Md5 h;
      h.update(v.substr(0, split));
      h.update(v.substr(split));
      EXPECT_EQ(to_hex(h.digest()), want)
          << "length " << text.size() << ", split at " << split;
    }
  }
}

TEST(Md5, UpdateAfterDigestThrows) {
  Md5 h;
  h.update("x");
  h.digest();
  EXPECT_THROW(h.update("y"), std::logic_error);
  EXPECT_THROW(h.digest(), std::logic_error);
}

TEST(Md5, ToHexFormatting) {
  const std::uint8_t bytes[] = {0x00, 0xff, 0x0a};
  EXPECT_EQ(to_hex(bytes), "00ff0a");
}

}  // namespace
}  // namespace tls::fp
