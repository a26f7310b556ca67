#include "grid/builder.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

namespace pushpart {
namespace {

TEST(FromAsciiTest, ParsesSmallGrid) {
  const auto q = fromAscii(
      "PPR\n"
      "PSR\n"
      "PPR\n");
  EXPECT_EQ(q.n(), 3);
  EXPECT_EQ(q.at(0, 0), Proc::P);
  EXPECT_EQ(q.at(0, 2), Proc::R);
  EXPECT_EQ(q.at(1, 1), Proc::S);
  EXPECT_EQ(q.count(Proc::R), 3);
  EXPECT_EQ(q.count(Proc::S), 1);
  EXPECT_EQ(q.count(Proc::P), 5);
}

TEST(FromAsciiTest, TrimsIndentationAndBlankLines) {
  const auto q = fromAscii(R"(
      PR
      SP
  )");
  EXPECT_EQ(q.n(), 2);
  EXPECT_EQ(q.at(1, 0), Proc::S);
}

TEST(FromAsciiTest, RejectsNonSquare) {
  EXPECT_THROW(fromAscii("PP\nPPP\n"), std::invalid_argument);
  EXPECT_THROW(fromAscii("PPP\nPPP\n"), std::invalid_argument);
}

TEST(FromAsciiTest, RejectsBadCharacters) {
  EXPECT_THROW(fromAscii("PX\nPP\n"), std::invalid_argument);
}

TEST(FromAsciiTest, RejectsEmpty) {
  EXPECT_THROW(fromAscii(""), std::invalid_argument);
  EXPECT_THROW(fromAscii("\n  \n"), std::invalid_argument);
}

TEST(ToAsciiTest, RoundTrips) {
  const std::string art = "PPR\nPSR\nPPR";
  EXPECT_EQ(toAscii(fromAscii(art)), art);
}

using RandomParam = std::tuple<int, const char*, std::uint64_t>;

class RandomPartitionTest : public ::testing::TestWithParam<RandomParam> {};

TEST_P(RandomPartitionTest, ScatteredRespectsRatioCounts) {
  const auto [n, ratioStr, seed] = GetParam();
  const auto ratio = Ratio::parse(ratioStr);
  Rng rng(seed);
  const auto q = randomPartition(n, ratio, rng);
  const auto want = ratio.elementCounts(n);
  for (Proc x : kAllProcs)
    EXPECT_EQ(q.count(x), want[static_cast<std::size_t>(procIndex(x))])
        << procName(x);
  q.validateCounters();
}

TEST_P(RandomPartitionTest, ClusteredRespectsRatioCounts) {
  const auto [n, ratioStr, seed] = GetParam();
  const auto ratio = Ratio::parse(ratioStr);
  Rng rng(seed);
  const auto q = randomClusteredPartition(n, ratio, rng);
  const auto want = ratio.elementCounts(n);
  for (Proc x : kAllProcs)
    EXPECT_EQ(q.count(x), want[static_cast<std::size_t>(procIndex(x))])
        << procName(x);
  q.validateCounters();
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndRatios, RandomPartitionTest,
    ::testing::Combine(::testing::Values(8, 25, 60),
                       ::testing::Values("2:1:1", "5:2:1", "10:1:1", "5:4:1"),
                       ::testing::Values(1u, 99u)));

TEST(RandomPartitionTest, DeterministicForSeed) {
  const Ratio ratio{3, 2, 1};
  Rng a(5), b(5);
  EXPECT_EQ(randomPartition(20, ratio, a), randomPartition(20, ratio, b));
}

TEST(RandomPartitionTest, DifferentSeedsDiffer) {
  const Ratio ratio{3, 2, 1};
  Rng a(5), b(6);
  EXPECT_FALSE(randomPartition(20, ratio, a) == randomPartition(20, ratio, b));
}

TEST(RandomPartitionTest, ScatteredStartIsFragmented) {
  // The whole point of the random q0 is to avoid preconceived shapes: with a
  // scattered start the slower processors should touch most rows.
  Rng rng(3);
  const auto q = randomPartition(50, Ratio{2, 1, 1}, rng);
  EXPECT_GT(q.rowsUsed(Proc::R), 40);
  EXPECT_GT(q.colsUsed(Proc::R), 40);
}

TEST(RandomPartitionTest, KOwnerScatterRespectsCounts) {
  Rng rng(5);
  const auto speeds = NSpeeds::parse("8:4:2:1");
  const auto q = randomPartition(30, speeds, rng);
  EXPECT_EQ(q.owners(), 4);
  const auto counts = speeds.elementCounts(30);
  for (int x = 0; x < 4; ++x)
    EXPECT_EQ(q.count(procFromIndex(x)), counts[static_cast<std::size_t>(x)]);
  q.validateCounters();
}

TEST(RandomPartitionTest, ThreeOwnerSpeedsDrawTheRatioScatter) {
  const Ratio ratio{5, 2, 1};
  NSpeeds speeds;
  speeds.speeds = {5, 2, 1};
  for (std::uint64_t seed : {1u, 7u, 99u}) {
    Rng a(seed), b(seed);
    EXPECT_EQ(randomPartition(37, ratio, a), randomPartition(37, speeds, b));
    EXPECT_EQ(a(), b());  // the same number of draws
  }
}

}  // namespace
}  // namespace pushpart
