#include "grid/ratio.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace pushpart {
namespace {

TEST(RatioTest, ParseBasic) {
  const auto r = Ratio::parse("5:2:1");
  EXPECT_DOUBLE_EQ(r.p, 5);
  EXPECT_DOUBLE_EQ(r.r, 2);
  EXPECT_DOUBLE_EQ(r.s, 1);
  EXPECT_DOUBLE_EQ(r.total(), 8);
}

TEST(RatioTest, ParseFractional) {
  const auto r = Ratio::parse("2.5:1.5:1");
  EXPECT_DOUBLE_EQ(r.p, 2.5);
  EXPECT_DOUBLE_EQ(r.r, 1.5);
}

TEST(RatioTest, ParseErrors) {
  EXPECT_THROW(Ratio::parse(""), std::invalid_argument);
  EXPECT_THROW(Ratio::parse("5:2"), std::invalid_argument);
  EXPECT_THROW(Ratio::parse("5;2;1"), std::invalid_argument);
  EXPECT_THROW(Ratio::parse("a:b:c"), std::invalid_argument);
  EXPECT_THROW(Ratio::parse("5:2:1:1"), std::invalid_argument);
  EXPECT_THROW(Ratio::parse("5:2:0"), std::invalid_argument);
  EXPECT_THROW(Ratio::parse("-5:2:1"), std::invalid_argument);
}

TEST(RatioTest, RoundTripString) {
  const auto r = Ratio::parse("10:3:1");
  EXPECT_EQ(r.str(), "10:3:1");
  EXPECT_EQ(Ratio::parse(r.str()), r);
}

TEST(RatioTest, SpeedAndFraction) {
  const Ratio r{5, 2, 1};
  EXPECT_DOUBLE_EQ(r.speed(Proc::P), 5);
  EXPECT_DOUBLE_EQ(r.speed(Proc::R), 2);
  EXPECT_DOUBLE_EQ(r.speed(Proc::S), 1);
  EXPECT_DOUBLE_EQ(r.fraction(Proc::P), 5.0 / 8.0);
  EXPECT_DOUBLE_EQ(r.fraction(Proc::S), 1.0 / 8.0);
}

TEST(RatioTest, ElementCountsSumToN2) {
  for (const auto& r : paperRatios()) {
    for (int n : {10, 37, 100, 1000}) {
      const auto c = r.elementCounts(n);
      EXPECT_EQ(c[0] + c[1] + c[2], static_cast<std::int64_t>(n) * n)
          << "ratio " << r.str() << " n=" << n;
      // P gets the largest share (ratio assumption p >= r, s).
      EXPECT_GE(c[procIndex(Proc::P)], c[procIndex(Proc::R)]);
      EXPECT_GE(c[procIndex(Proc::P)], c[procIndex(Proc::S)]);
    }
  }
}

TEST(RatioTest, ElementCountsMatchFractions) {
  const Ratio r{2, 1, 1};
  const auto c = r.elementCounts(100);
  EXPECT_EQ(c[procIndex(Proc::P)], 5000);
  EXPECT_EQ(c[procIndex(Proc::R)], 2500);
  EXPECT_EQ(c[procIndex(Proc::S)], 2500);
}

TEST(RatioTest, NormalizedDividesBySlowest) {
  const Ratio r{10, 4, 2};
  const auto n = r.normalized();
  EXPECT_DOUBLE_EQ(n.p, 5);
  EXPECT_DOUBLE_EQ(n.r, 2);
  EXPECT_DOUBLE_EQ(n.s, 1);
}

TEST(RatioTest, ValidRequiresPFastest) {
  EXPECT_TRUE((Ratio{5, 2, 1}).valid());
  EXPECT_TRUE((Ratio{2, 2, 1}).valid());
  EXPECT_TRUE((Ratio{1, 1, 1}).valid());
  EXPECT_FALSE((Ratio{1, 2, 1}).valid());
  EXPECT_FALSE((Ratio{0, 1, 1}).valid());
}

TEST(RatioTest, PaperRatiosAreTheElevenStudied) {
  const auto& rs = paperRatios();
  EXPECT_EQ(rs.size(), 11u);
  EXPECT_EQ(rs[0].str(), "2:1:1");
  EXPECT_EQ(rs[4].str(), "10:1:1");
  EXPECT_EQ(rs[10].str(), "5:4:1");
  for (const auto& r : rs) EXPECT_TRUE(r.valid());
}

// --- Shares that cannot be cast to a count are refused -------------------

TEST(RatioTest, ParseRejectsNonFiniteSpeeds) {
  EXPECT_THROW(Ratio::parse("inf:1:1"), std::invalid_argument);
  EXPECT_THROW(Ratio::parse("5:nan:1"), std::invalid_argument);
  EXPECT_THROW(Ratio::parse("1e999:1:1"), std::invalid_argument);
  EXPECT_NO_THROW(Ratio::parse("1e306:1e306:1"));
}

TEST(RatioTest, ElementCountsRefuseOverflowingShares) {
  const double inf = std::numeric_limits<double>::infinity();
  // inf/inf is a NaN share; 1e306·n² overflows to an infinite one. Either
  // used to reach an undefined cast to int64.
  EXPECT_THROW(Ratio({inf, inf, 1}).elementCounts(48), std::invalid_argument);
  EXPECT_THROW(Ratio({1e306, 1e306, 1}).elementCounts(48),
               std::invalid_argument);
  NSpeeds speeds;
  speeds.speeds = {1e306, 1e306, 1};
  EXPECT_THROW(speeds.elementCounts(48), std::invalid_argument);
  speeds.speeds = {inf, inf, 1, 1};
  EXPECT_THROW(speeds.elementCounts(48), std::invalid_argument);
}

// --- NSpeeds: k owners, counts indexed by owner id ------------------------

TEST(NSpeedsTest, ParseAndValidate) {
  const auto s = NSpeeds::parse("8:4:2:1");
  ASSERT_EQ(s.owners(), 4);
  EXPECT_DOUBLE_EQ(s.total(), 15.0);
  EXPECT_TRUE(s.valid());
  EXPECT_EQ(s.str(), "8:4:2:1");
}

TEST(NSpeedsTest, ParseErrors) {
  EXPECT_THROW(NSpeeds::parse(""), std::invalid_argument);
  EXPECT_THROW(NSpeeds::parse("5"), std::invalid_argument);
  EXPECT_THROW(NSpeeds::parse("5:-1"), std::invalid_argument);
  EXPECT_THROW(NSpeeds::parse("5;2"), std::invalid_argument);
  EXPECT_THROW(NSpeeds::parse("inf:1"), std::invalid_argument);
}

TEST(NSpeedsTest, FastestFirstRequired) {
  NSpeeds s;
  s.speeds = {2, 5, 1};
  EXPECT_FALSE(s.valid());
  s.speeds = {5, 5, 1};
  EXPECT_TRUE(s.valid());
}

TEST(NSpeedsTest, ElementCountsSumExactly) {
  for (const char* spec : {"4:1", "3:2:1", "8:4:2:1", "10:5:3:2:1"}) {
    const auto s = NSpeeds::parse(spec);
    const Proc fastest = ownerOfRank(0, s.owners());
    for (int n : {10, 33, 100}) {
      const auto counts = s.elementCounts(n);
      std::int64_t sum = 0;
      for (auto c : counts) sum += c;
      EXPECT_EQ(sum, static_cast<std::int64_t>(n) * n) << spec << " n=" << n;
      // The fastest owner holds the plurality.
      for (auto c : counts) EXPECT_GE(counts[procSlot(fastest)], c);
    }
  }
}

TEST(NSpeedsTest, ElementCountsIndexedByOwnerId) {
  const auto s = NSpeeds::parse("8:4:2:1");
  const auto counts = s.elementCounts(30);
  // Slow owners 0, 1, 2 take speeds 4, 2, 1; the fastest (3) the rest.
  EXPECT_EQ(counts[0], 240);
  EXPECT_EQ(counts[1], 120);
  EXPECT_EQ(counts[2], 60);
  EXPECT_EQ(counts[3], 480);
}

TEST(NSpeedsTest, ThreeOwnersEqualRatioCounts) {
  for (const Ratio& ratio : paperRatios()) {
    NSpeeds s;
    s.speeds = {ratio.p, ratio.r, ratio.s};
    for (int n = 1; n <= 200; n += 7) {
      const auto counts = s.elementCounts(n);
      const auto expected = ratio.elementCounts(n);
      ASSERT_EQ(counts.size(), expected.size());
      for (std::size_t x = 0; x < counts.size(); ++x)
        EXPECT_EQ(counts[x], expected[x]) << ratio.str() << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace pushpart
