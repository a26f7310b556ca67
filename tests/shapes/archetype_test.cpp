#include "shapes/archetype.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "dfa/dfa.hpp"
#include "grid/builder.hpp"

namespace pushpart {
namespace {

TEST(ArchetypeTest, DisjointRectanglesAreA) {
  const auto q = fromAscii(
      "RRPP\n"
      "RRPP\n"
      "PPSS\n"
      "PPSS\n");
  const auto info = classifyArchetype(q);
  EXPECT_EQ(info.archetype, Archetype::A);
  EXPECT_FALSE(info.rectsOverlap);
  EXPECT_EQ(info.rCorners, 4);
  EXPECT_EQ(info.sCorners, 4);
}

TEST(ArchetypeTest, SquareCornerIsA) {
  const auto q = fromAscii(
      "RRPPPP\n"
      "RRPPPP\n"
      "PPPPPP\n"
      "PPPPPP\n"
      "PPPPSS\n"
      "PPPPSS\n");
  EXPECT_EQ(classifyArchetype(q).archetype, Archetype::A);
}

TEST(ArchetypeTest, LWrappedAroundRectangleIsB) {
  // R is an L with 6 corners; S a rectangle; enclosing rects overlap.
  const auto q = fromAscii(
      "RRPPPP\n"
      "RRPPPP\n"
      "RRSSPP\n"
      "RRSSPP\n"
      "PPPPPP\n"
      "PPPPPP\n");
  // R's rect rows 0..3 cols 0..1; S rows 2..3 cols 2..3 — no overlap, both
  // rectangles → actually A. Build a true B instead: R wraps around S's side.
  (void)q;
  const auto b = fromAscii(
      "RRRRPP\n"
      "RRRRPP\n"
      "RRSSPP\n"
      "RRSSPP\n"
      "PPPPPP\n"
      "PPPPPP\n");
  const auto info = classifyArchetype(b);
  EXPECT_EQ(info.archetype, Archetype::B) << info.str();
  EXPECT_TRUE(info.rectsOverlap);
  EXPECT_EQ(info.rCorners, 6);
  EXPECT_EQ(info.sCorners, 4);
}

TEST(ArchetypeTest, InterlockIsC) {
  // Neither R nor S rectangular; their union is a rectangle (paper §VII-F).
  const auto q = fromAscii(
      "RRRPPP\n"
      "RRSPPP\n"
      "RSSPPP\n"
      "SSSPPP\n"
      "PPPPPP\n"
      "PPPPPP\n");
  const auto info = classifyArchetype(q);
  EXPECT_EQ(info.archetype, Archetype::C) << info.str();
  EXPECT_TRUE(info.rectsOverlap);
  EXPECT_FALSE(info.rRectangular);
  EXPECT_FALSE(info.sRectangular);
  EXPECT_GE(info.rCorners, 6);
  EXPECT_GE(info.sCorners, 6);
}

TEST(ArchetypeTest, SurroundIsD) {
  const auto q = fromAscii(
      "RRRRPP\n"
      "RSSRPP\n"
      "RSSRPP\n"
      "RRRRPP\n"
      "PPPPPP\n"
      "PPPPPP\n");
  const auto info = classifyArchetype(q);
  EXPECT_EQ(info.archetype, Archetype::D) << info.str();
  EXPECT_TRUE(info.surround);
  EXPECT_EQ(info.sCorners, 4);
  EXPECT_EQ(info.rCorners, 8);
}

TEST(ArchetypeTest, SurroundWithRInsideSIsD) {
  const auto q = fromAscii(
      "SSSSPP\n"
      "SRRSPP\n"
      "SRRSPP\n"
      "SSSSPP\n"
      "PPPPPP\n"
      "PPPPPP\n");
  EXPECT_EQ(classifyArchetype(q).archetype, Archetype::D);
}

TEST(ArchetypeTest, EmptyProcessorIsUnknown) {
  Partition q(4);
  q.set(0, 0, Proc::R);  // S absent
  EXPECT_EQ(classifyArchetype(q).archetype, Archetype::Unknown);
}

TEST(ArchetypeTest, DisjointNonRectangleIsUnknown) {
  // R has two short rows — not asymptotically rectangular, no overlap.
  const auto q = fromAscii(
      "RPPPPP\n"
      "RRPPPP\n"
      "RRRPPP\n"
      "PPPPPP\n"
      "PPPPSS\n"
      "PPPPSS\n");
  EXPECT_EQ(classifyArchetype(q).archetype, Archetype::Unknown);
}

TEST(ArchetypeTest, AsymptoticRaggedEdgesStillClassifyA) {
  // Integer-granularity candidates have one partial row; still Archetype A.
  const auto q = fromAscii(
      "RRPPPP\n"
      "RRRPPP\n"
      "RRRPPP\n"
      "PPPPPP\n"
      "PPPSSS\n"
      "PPPSSS\n");
  EXPECT_EQ(classifyArchetype(q).archetype, Archetype::A);
}

// The paper's central experimental claim (Postulate 1): every condensed DFA
// output classifies into A–D — no Unknown shapes survive.
class DfaArchetypeCoverageTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(DfaArchetypeCoverageTest, CondensedOutputsClassify) {
  const auto [ratioStr, seed] = GetParam();
  const auto ratio = Ratio::parse(ratioStr);
  Rng rng(seed);
  for (int run = 0; run < 6; ++run) {
    const Schedule schedule = Schedule::random(rng);
    auto q0 = randomPartition(30, ratio, rng);
    const auto result = runDfa(std::move(q0), schedule, {});
    const auto info = classifyArchetype(result.final);
    EXPECT_NE(info.archetype, Archetype::Unknown)
        << "ratio=" << ratioStr << " seed=" << seed << " run=" << run << "\n"
        << info.str() << "\n"
        << toAscii(result.final);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperRatios, DfaArchetypeCoverageTest,
    ::testing::Combine(::testing::Values("2:1:1", "3:1:1", "5:2:1", "10:1:1",
                                         "2:2:1", "5:4:1"),
                       ::testing::Values(11u, 29u)));

}  // namespace
}  // namespace pushpart
