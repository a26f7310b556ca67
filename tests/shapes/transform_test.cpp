#include "shapes/transform.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "dfa/dfa.hpp"
#include "grid/builder.hpp"

namespace pushpart {
namespace {

TEST(TranslateCombinedTest, PreservesVoCAndCounts) {
  auto q = fromAscii(
      "RRPPPP\n"
      "RRSPPP\n"
      "PPSPPP\n"
      "PPPPPP\n"
      "PPPPPP\n"
      "PPPPPP\n");
  const auto voc = q.volumeOfCommunication();
  ASSERT_TRUE(translateCombined(q, 2, 3));
  EXPECT_EQ(q.volumeOfCommunication(), voc);
  EXPECT_EQ(q.count(Proc::R), 4);
  EXPECT_EQ(q.count(Proc::S), 2);
  EXPECT_EQ(q.at(2, 3), Proc::R);
  EXPECT_EQ(q.at(3, 5), Proc::S);
  q.validateCounters();
}

TEST(TranslateCombinedTest, RejectsOutOfBounds) {
  auto q = fromAscii(
      "RRPP\n"
      "RRPP\n"
      "PPSS\n"
      "PPSS\n");
  const auto original = q;
  EXPECT_FALSE(translateCombined(q, 3, 0));  // S would fall off the bottom
  EXPECT_EQ(q, original);
  EXPECT_FALSE(translateCombined(q, 0, -1));  // R would fall off the left
  EXPECT_EQ(q, original);
}

TEST(TranslateCombinedTest, IdentityIsNoOp) {
  auto q = fromAscii(
      "RP\n"
      "PS\n");
  const auto original = q;
  EXPECT_TRUE(translateCombined(q, 0, 0));
  EXPECT_EQ(q, original);
}

TEST(SlideInnerTest, SlidesSurroundedRectangleToEdge) {
  // Archetype D: S surrounded by R. Thm 8.4 slides S against R's edge.
  auto q = fromAscii(
      "RRRRPP\n"
      "RSSRPP\n"
      "RSSRPP\n"
      "RRRRPP\n"
      "PPPPPP\n"
      "PPPPPP\n");
  const auto voc = q.volumeOfCommunication();
  ASSERT_TRUE(slideInner(q, Proc::S, 1, 1));  // to the bottom-right corner
  EXPECT_LE(q.volumeOfCommunication(), voc);
  EXPECT_EQ(q.at(2, 2), Proc::S);
  EXPECT_EQ(q.at(3, 3), Proc::S);
  EXPECT_EQ(q.count(Proc::S), 4);
  EXPECT_EQ(q.count(Proc::R), 12);
  q.validateCounters();
}

TEST(SlideInnerTest, RejectsLeavingSurroundingRect) {
  auto q = fromAscii(
      "RRRRPP\n"
      "RSSRPP\n"
      "RSSRPP\n"
      "RRRRPP\n"
      "PPPPPP\n"
      "PPPPPP\n");
  const auto original = q;
  EXPECT_FALSE(slideInner(q, Proc::S, 2, 0));
  EXPECT_EQ(q, original);
}

TEST(SlideInnerTest, RejectsWhenNotSurrounded) {
  auto q = fromAscii(
      "RRPP\n"
      "RRPP\n"
      "PPSS\n"
      "PPSS\n");
  const auto original = q;
  EXPECT_FALSE(slideInner(q, Proc::S, 0, -1));
  EXPECT_EQ(q, original);
}

TEST(SlideInnerTest, RejectsDisplacingThirdProcessor) {
  // Destination cells hold P, outside Thm 8.4's premise.
  auto q = fromAscii(
      "RRRRPP\n"
      "RSSRPP\n"
      "RSSRPP\n"
      "RRRRPP\n"
      "PPPPPP\n"
      "PPPPPP\n");
  // Moving right by 2 leaves R's rect; moving down-right into the R border is
  // allowed, but a crafted grid with P inside would refuse. Replace one
  // border cell with P:
  q.set(3, 3, Proc::P);
  const auto original = q;
  EXPECT_FALSE(slideInner(q, Proc::S, 1, 1));
  EXPECT_EQ(q, original);
}

TEST(ReduceToArchetypeATest, ReducesSurround) {
  const Ratio ratio{5, 1, 1};
  // Build a D-shaped partition at the ratio's element counts: start from the
  // DFA on a seed that lands in D is flaky; instead synthesise one directly.
  const int n = 12;
  const auto counts = ratio.elementCounts(n);
  Partition q(n, Proc::P);
  // S: a block inside R's band.
  std::int64_t sLeft = counts[procSlot(Proc::S)];
  for (int i = 4; i < n && sLeft > 0; ++i)
    for (int j = 4; j < 8 && sLeft > 0; ++j) {
      q.set(i, j, Proc::S);
      --sLeft;
    }
  std::int64_t rLeft = counts[procSlot(Proc::R)];
  for (int i = 2; i < n && rLeft > 0; ++i)
    for (int j = 2; j < 10 && rLeft > 0; ++j) {
      if (q.at(i, j) != Proc::P) continue;
      q.set(i, j, Proc::R);
      --rLeft;
    }
  ASSERT_EQ(rLeft, 0);
  ASSERT_EQ(sLeft, 0);

  auto reduced = q;
  const auto result = reduceToArchetypeA(reduced, ratio);
  ASSERT_TRUE(result.has_value());
  EXPECT_LE(result->vocAfter, result->vocBefore);
  EXPECT_EQ(reduced.volumeOfCommunication(), result->vocAfter);
  EXPECT_EQ(classifyArchetype(reduced).archetype, Archetype::A);
  for (Proc x : kAllProcs) EXPECT_EQ(reduced.count(x), q.count(x));
}

// Paper Thms 8.2–8.4 as an executable property: every condensed DFA output,
// whatever its archetype, admits an Archetype A canonical candidate with VoC
// no larger.
class ReducePropertyTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(ReducePropertyTest, CondensedShapesReduceToCandidates) {
  const auto [ratioStr, seed] = GetParam();
  const auto ratio = Ratio::parse(ratioStr);
  Rng rng(seed);
  for (int run = 0; run < 4; ++run) {
    const Schedule schedule = Schedule::random(rng);
    auto result = runDfa(randomPartition(30, ratio, rng), schedule, {});
    auto reduced = result.final;
    const auto reduction = reduceToArchetypeA(reduced, ratio);
    ASSERT_TRUE(reduction.has_value())
        << "no canonical candidate matches VoC of condensed shape\n"
        << toAscii(result.final);
    EXPECT_LE(reduction->vocAfter, result.final.volumeOfCommunication());
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperRatios, ReducePropertyTest,
    ::testing::Combine(::testing::Values("2:1:1", "4:1:1", "5:2:1", "10:1:1",
                                         "5:4:1"),
                       ::testing::Values(101u, 202u)));

}  // namespace
}  // namespace pushpart
