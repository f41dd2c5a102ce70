#include <gtest/gtest.h>

#include "tlscore/extensions.hpp"
#include "tlscore/grease.hpp"
#include "tlscore/named_groups.hpp"
#include "tlscore/timeline.hpp"
#include "tlscore/version.hpp"

namespace tls::core {
namespace {

TEST(Extensions, LookupKnown) {
  const auto* sni = find_extension(0);
  ASSERT_NE(sni, nullptr);
  EXPECT_EQ(sni->name, "server_name");
  EXPECT_EQ(extension_name(43), "supported_versions");
  EXPECT_EQ(extension_name(65281), "renegotiation_info");
}

TEST(Extensions, UnknownRendersNumeric) {
  EXPECT_EQ(find_extension(12345), nullptr);
  EXPECT_EQ(extension_name(12345), "ext_12345");
}

TEST(Extensions, VendorExtensionsFlagged) {
  const auto* npn = find_extension(13172);
  ASSERT_NE(npn, nullptr);
  EXPECT_FALSE(npn->iana_registered);
  const auto* hb = find_extension(15);
  ASSERT_NE(hb, nullptr);
  EXPECT_TRUE(hb->iana_registered);
}

TEST(Extensions, SortedUnique) {
  const auto all = all_extensions();
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].id, all[i].id);
  }
}

TEST(NamedGroups, LookupKnown) {
  const auto* p256 = find_named_group(23);
  ASSERT_NE(p256, nullptr);
  EXPECT_EQ(p256->name, "secp256r1");
  EXPECT_TRUE(p256->elliptic);
  const auto* x = find_named_group(29);
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->name, "x25519");
  const auto* ffdhe = find_named_group(256);
  ASSERT_NE(ffdhe, nullptr);
  EXPECT_FALSE(ffdhe->elliptic);
}

TEST(NamedGroups, UnknownRendersNumeric) {
  EXPECT_EQ(find_named_group(999), nullptr);
  EXPECT_EQ(named_group_name(999), "group_999");
  EXPECT_EQ(named_group_name(14), "sect571r1");
}

TEST(Grease, SixteenValues) {
  const auto values = grease_values();
  EXPECT_EQ(values.size(), 16u);
  for (const auto v : values) {
    EXPECT_TRUE(is_grease(v)) << std::hex << v;
    EXPECT_EQ(v >> 8, v & 0xff);
  }
}

TEST(Grease, Negatives) {
  EXPECT_FALSE(is_grease(0x0a1a));
  EXPECT_FALSE(is_grease(0x1301));
  EXPECT_FALSE(is_grease(0x0000));
  EXPECT_FALSE(is_grease(0xc02f));
}

TEST(Versions, NamesAndRanks) {
  EXPECT_EQ(version_name(ProtocolVersion::kTls12), "TLSv1.2");
  EXPECT_EQ(version_name(std::uint16_t{0x7f12}), "TLS 1.3 draft-18");
  EXPECT_EQ(version_name(std::uint16_t{0x7e02}),
            "TLS 1.3 experiment 0x7e02");
  EXPECT_LT(version_rank(ProtocolVersion::kSsl3),
            version_rank(ProtocolVersion::kTls10));
  EXPECT_LT(version_rank(ProtocolVersion::kTls12),
            version_rank(ProtocolVersion::kTls13Draft18));
  EXPECT_LT(version_rank(ProtocolVersion::kTls13Draft18),
            version_rank(ProtocolVersion::kTls13Draft28));
  EXPECT_LT(version_rank(ProtocolVersion::kTls13Draft28),
            version_rank(ProtocolVersion::kTls13));
}

TEST(Versions, ReleaseDatesMatchTable1) {
  EXPECT_EQ(*version_release_date(ProtocolVersion::kSsl2), Date(1995, 2, 1));
  EXPECT_EQ(*version_release_date(ProtocolVersion::kSsl3), Date(1996, 11, 1));
  EXPECT_EQ(*version_release_date(ProtocolVersion::kTls10), Date(1999, 1, 1));
  EXPECT_EQ(*version_release_date(ProtocolVersion::kTls11), Date(2006, 4, 1));
  EXPECT_EQ(*version_release_date(ProtocolVersion::kTls12), Date(2008, 8, 1));
  EXPECT_EQ(*version_release_date(ProtocolVersion::kTls13), Date(2018, 8, 1));
  EXPECT_FALSE(version_release_date(ProtocolVersion::kTls13Draft18));
}

TEST(Versions, Tls13Family) {
  EXPECT_TRUE(is_tls13_family(ProtocolVersion::kTls13));
  EXPECT_TRUE(is_tls13_family(ProtocolVersion::kTls13Draft28));
  EXPECT_TRUE(is_tls13_family(ProtocolVersion::kTls13GoogleExperiment2));
  EXPECT_FALSE(is_tls13_family(ProtocolVersion::kTls12));
  // The wire-value form the monitor, the negotiator and the feature
  // extractor share.
  EXPECT_TRUE(tls::core::is_tls13_wire(0x0304));
  EXPECT_TRUE(tls::core::is_tls13_wire(0x7f1c));
  EXPECT_TRUE(tls::core::is_tls13_wire(0x7e02));
  EXPECT_FALSE(tls::core::is_tls13_wire(0x0303));
  EXPECT_FALSE(tls::core::is_tls13_wire(0x0a0a));  // GREASE
}

TEST(Timeline, ChronologicalOrder) {
  const auto events = attack_timeline();
  ASSERT_GE(events.size(), 10u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].date, events[i].date)
        << events[i - 1].id << " vs " << events[i].id;
  }
}

TEST(Timeline, FindsPaperEvents) {
  for (const char* id : {"beast", "lucky13", "rc4", "snowden", "heartbleed",
                         "poodle", "freak", "logjam", "sweet32"}) {
    EXPECT_NE(find_event(id), nullptr) << id;
  }
  EXPECT_EQ(find_event("spectre"), nullptr);
}

TEST(Timeline, PaperDates) {
  EXPECT_EQ(find_event("poodle")->date, Date(2014, 10, 14));
  EXPECT_EQ(find_event("logjam")->date, Date(2015, 5, 20));
  EXPECT_EQ(find_event("sweet32")->date, Date(2016, 8, 31));
  EXPECT_EQ(find_event("beast")->date, Date(2011, 9, 6));
}

}  // namespace
}  // namespace tls::core
