#include <gtest/gtest.h>

#include <span>
#include <string_view>

#include "tlscore/fnv.hpp"
#include "tlscore/rng.hpp"
#include "tlscore/series.hpp"

namespace tls::core {
namespace {

TEST(AnchorSeries, EmptyIsZero) {
  AnchorSeries s;
  EXPECT_EQ(s.at(Month(2015, 1)), 0.0);
}

TEST(AnchorSeries, ClampsOutsideRange) {
  AnchorSeries s{{Month(2013, 1), 2.0}, {Month(2014, 1), 4.0}};
  EXPECT_DOUBLE_EQ(s.at(Month(2012, 1)), 2.0);
  EXPECT_DOUBLE_EQ(s.at(Month(2018, 1)), 4.0);
}

TEST(AnchorSeries, LinearInterpolation) {
  AnchorSeries s{{Month(2013, 1), 0.0}, {Month(2014, 1), 12.0}};
  EXPECT_DOUBLE_EQ(s.at(Month(2013, 7)), 6.0);
  EXPECT_DOUBLE_EQ(s.at(Month(2013, 4)), 3.0);
  EXPECT_DOUBLE_EQ(s.at(Month(2013, 1)), 0.0);
  EXPECT_DOUBLE_EQ(s.at(Month(2014, 1)), 12.0);
}

TEST(AnchorSeries, MultiSegment) {
  AnchorSeries s{{Month(2013, 1), 0.0},
                 {Month(2013, 3), 10.0},
                 {Month(2013, 7), 2.0}};
  EXPECT_DOUBLE_EQ(s.at(Month(2013, 2)), 5.0);
  EXPECT_DOUBLE_EQ(s.at(Month(2013, 5)), 6.0);
}

TEST(AnchorSeries, RejectsNonIncreasingAnchors) {
  AnchorSeries s;
  s.add(Month(2013, 5), 1.0);
  EXPECT_THROW(s.add(Month(2013, 5), 2.0), std::invalid_argument);
  EXPECT_THROW(s.add(Month(2013, 1), 2.0), std::invalid_argument);
}

TEST(AnchorSeries, Constant) {
  const auto s = AnchorSeries::constant(0.42);
  EXPECT_DOUBLE_EQ(s.at(Month(2012, 1)), 0.42);
  EXPECT_DOUBLE_EQ(s.at(Month(2018, 4)), 0.42);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceFrequency) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Rng, ForkIndependence) {
  Rng parent(5);
  Rng child = parent.fork();
  // Child stream should not mirror the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.next() == child.next();
  EXPECT_LT(same, 2);
}

TEST(Splitmix, KnownProgression) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_EQ(s, 2 * 0x9e3779b97f4a7c15ull);
}

std::span<const std::uint8_t> ascii(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Fnv1a64, StandardVectors) {
  // Journal frames, checkpoint manifests, flight dumps and daemon shard
  // routing all depend on these exact values.
  EXPECT_EQ(fnv1a64(ascii("")), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64(ascii("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64(ascii("foobar")), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64, SeedChainsPiecewiseInput) {
  EXPECT_EQ(fnv1a64(ascii("bar"), fnv1a64(ascii("foo"))),
            fnv1a64(ascii("foobar")));
}

}  // namespace
}  // namespace tls::core
