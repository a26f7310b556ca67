#include "shapes/candidates.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>

#include "grid/builder.hpp"
#include "shapes/archetype.hpp"
#include "shapes/corners.hpp"
#include "support/fnv.hpp"
#include "../support/line_runs.hpp"

namespace pushpart {
namespace {

TEST(CandidateNameTest, RoundTrips) {
  for (CandidateShape s : kAllCandidates)
    EXPECT_EQ(candidateFromName(candidateName(s)), s);
  EXPECT_THROW(candidateFromName("Bogus"), std::invalid_argument);
}

TEST(Theorem91Test, SquareCornerFeasibilityBoundary) {
  // Thm 9.1: both squares fit iff P_r > 2√(R_r S_r). With R_r = S_r = 1 the
  // boundary is P_r = 2.
  const int n = 120;
  EXPECT_FALSE(candidateFeasible(CandidateShape::kSquareCorner, n,
                                 Ratio{1.2, 1, 1}));
  EXPECT_TRUE(candidateFeasible(CandidateShape::kSquareCorner, n,
                                Ratio{3, 1, 1}));
  EXPECT_TRUE(candidateFeasible(CandidateShape::kSquareCorner, n,
                                Ratio{10, 1, 1}));
  // With R_r = 4, S_r = 1 the continuous boundary is P_r = 4; the integer
  // construction admits the boundary itself (the squares exactly tile the
  // edge) but not below it.
  EXPECT_FALSE(candidateFeasible(CandidateShape::kSquareCorner, n,
                                 Ratio{3.5, 4, 1}));
  EXPECT_TRUE(candidateFeasible(CandidateShape::kSquareCorner, n,
                                Ratio{7, 4, 1}));
}

TEST(Theorem91Test, ContinuousBoundaryMatchesConstructiveFeasibility) {
  // Sweep P_r and compare the constructive integer test against the paper's
  // continuous condition; they may only disagree in a narrow rounding band.
  const int n = 200;
  for (double pr = 1.0; pr <= 6.0; pr += 0.25) {
    const Ratio ratio{pr, 1, 1};
    const bool continuous = pr > 2.0 * std::sqrt(ratio.r * ratio.s);
    const bool constructive =
        candidateFeasible(CandidateShape::kSquareCorner, n, ratio);
    if (std::fabs(pr - 2.0) > 0.3) {
      EXPECT_EQ(constructive, continuous) << "P_r=" << pr;
    }
  }
}

TEST(RectangleCornerSplitTest, MatchesClosedForm) {
  // x = √R_r / (√R_r + √S_r).
  EXPECT_DOUBLE_EQ(rectangleCornerSplit(Ratio{2, 1, 1}), 0.5);
  EXPECT_NEAR(rectangleCornerSplit(Ratio{2, 4, 1}), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(rectangleCornerSplit(Ratio{5, 9, 4}), 3.0 / 5.0, 1e-12);
}

using CandidateParam = std::tuple<CandidateShape, std::string, int>;

class CandidateConstructionTest
    : public ::testing::TestWithParam<CandidateParam> {};

TEST_P(CandidateConstructionTest, ExactCountsAndArchetypeA) {
  const auto [shape, ratioStr, n] = GetParam();
  const auto ratio = Ratio::parse(ratioStr);
  if (!candidateFeasible(shape, n, ratio)) GTEST_SKIP() << "infeasible";
  const auto q = makeCandidate(shape, n, ratio);
  const auto want = ratio.elementCounts(n);
  for (Proc x : kAllProcs)
    EXPECT_EQ(q.count(x), want[procSlot(x)]) << procName(x);
  // All candidates are Archetype A: R and S asymptotically rectangular.
  EXPECT_TRUE(isAsymptoticallyRectangular(q, Proc::R));
  EXPECT_TRUE(isAsymptoticallyRectangular(q, Proc::S));
  const auto info = classifyArchetype(q);
  EXPECT_EQ(info.archetype, Archetype::A) << info.str() << "\n" << toAscii(q);
  q.validateCounters();

  // The line counts tier A ranks from are the painted grid's counters.
  const LineCounts lines = candidateLines(shape, n, ratio);
  expectRunsMatchGrid(lines, q);
  // Four rectangles cut each axis at most eight times.
  EXPECT_LE(lines.runs(Axis::kRows).size(), 9U);
  EXPECT_LE(lines.runs(Axis::kCols).size(), 9U);
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, CandidateConstructionTest,
    ::testing::Combine(::testing::ValuesIn(kAllCandidates),
                       ::testing::Values("2:1:1", "3:1:1", "5:1:1", "10:1:1",
                                         "3:2:1", "5:2:1", "5:4:1"),
                       ::testing::Values(40, 100)));

TEST(CandidateGeometryTest, SquareCornerPlacesOppositeCorners) {
  const int n = 60;
  const Ratio ratio{10, 1, 1};
  const auto q = makeCandidate(CandidateShape::kSquareCorner, n, ratio);
  const Rect r = q.enclosingRect(Proc::R);
  const Rect s = q.enclosingRect(Proc::S);
  EXPECT_EQ(r.rowBegin, 0);
  EXPECT_EQ(r.colBegin, 0);
  EXPECT_EQ(s.rowEnd, n);
  EXPECT_EQ(s.colEnd, n);
  // Disjoint rows and columns (the Square-Corner VoC structure).
  EXPECT_LE(r.rowEnd, s.rowBegin);
  EXPECT_LE(r.colEnd, s.colBegin);
  // Near-squares.
  EXPECT_LE(std::abs(r.width() - r.height()), 1);
  EXPECT_LE(std::abs(s.width() - s.height()), 1);
}

TEST(CandidateGeometryTest, SquareRectangleHasFullHeightStrip) {
  const int n = 60;
  const auto q =
      makeCandidate(CandidateShape::kSquareRectangle, n, Ratio{5, 2, 1});
  const Rect r = q.enclosingRect(Proc::R);
  EXPECT_EQ(r.rowBegin, 0);
  EXPECT_EQ(r.rowEnd, n);
  EXPECT_EQ(r.colBegin, 0);
  const Rect s = q.enclosingRect(Proc::S);
  EXPECT_LE(std::abs(s.width() - s.height()), 1);  // S is a near-square
}

TEST(CandidateGeometryTest, BlockRectangleSharesEqualHeights) {
  const int n = 60;
  const auto q =
      makeCandidate(CandidateShape::kBlockRectangle, n, Ratio{5, 2, 1});
  const Rect r = q.enclosingRect(Proc::R);
  const Rect s = q.enclosingRect(Proc::S);
  // Same strip rows at the bottom of the matrix, spanning the full width.
  EXPECT_EQ(r.rowEnd, n);
  EXPECT_EQ(s.rowEnd, n);
  EXPECT_LE(std::abs(r.height() - s.height()), 1);
  EXPECT_EQ(r.colBegin, 0);
  EXPECT_EQ(s.colEnd, n);
}

TEST(CandidateGeometryTest, TraditionalRectangleStacksInOneStrip) {
  const int n = 60;
  const auto q =
      makeCandidate(CandidateShape::kTraditionalRectangle, n, Ratio{5, 2, 1});
  const Rect r = q.enclosingRect(Proc::R);
  const Rect s = q.enclosingRect(Proc::S);
  // Same column band at the right edge; R above S.
  EXPECT_EQ(r.colEnd, n);
  EXPECT_EQ(s.colEnd, n);
  EXPECT_EQ(r.rowBegin, 0);
  EXPECT_EQ(s.rowEnd, n);
  EXPECT_LE(r.rowEnd, s.rowBegin + 1);  // at most the shared partial row
  // P keeps the full-height block left of the strip.
  for (int j = 0; j < s.colBegin; ++j) EXPECT_EQ(q.colCount(Proc::P, j), n);
}

TEST(CandidateGeometryTest, LRectangleLeavesPAnL) {
  const int n = 60;
  const auto q = makeCandidate(CandidateShape::kLRectangle, n, Ratio{5, 2, 1});
  const Rect r = q.enclosingRect(Proc::R);
  EXPECT_EQ(r.rowBegin, 0);
  EXPECT_EQ(r.rowEnd, n);
  const Rect s = q.enclosingRect(Proc::S);
  EXPECT_EQ(s.rowEnd, n);
  EXPECT_EQ(s.colEnd, n);
  // S spans all columns right of R's strip.
  EXPECT_GE(s.colBegin, r.colEnd - 1);
}

TEST(CandidateTest, InfeasibleConstructionThrows) {
  EXPECT_THROW(
      makeCandidate(CandidateShape::kSquareCorner, 100, Ratio{1.1, 1, 1}),
      std::invalid_argument);
  EXPECT_THROW(
      candidateLines(CandidateShape::kSquareCorner, 100, Ratio{1.1, 1, 1}),
      std::invalid_argument);
}

TEST(CandidateTest, GridsArePinned) {
  // Served answers name these exact grids: a change to any shape's bands
  // must show up here, not only as a moved VoC somewhere downstream. One
  // FNV-1a over the grid hashes of every feasible shape at n = 1..60 and the
  // paper's eleven ratios.
  std::uint64_t h = kFnv1aBasis;
  int grids = 0;
  for (int n = 1; n <= 60; ++n)
    for (const Ratio& ratio : paperRatios())
      for (CandidateShape shape : kAllCandidates) {
        if (!candidateFeasible(shape, n, ratio)) continue;
        const std::uint64_t g = makeCandidate(shape, n, ratio).hash();
        std::array<std::byte, 8> bytes;  // little-endian
        for (std::size_t b = 0; b < bytes.size(); ++b)
          bytes[b] = static_cast<std::byte>(g >> (8 * b));
        h = fnv1a(bytes, h);
        ++grids;
      }
  EXPECT_EQ(grids, 3706);
  EXPECT_EQ(h, 0x770f7c4c2cc0f8fdull);
}

TEST(CandidateTest, SquareCornerBeatsBlockRectangleAtHighHeterogeneity) {
  // The headline comparison (paper Fig. 13/14): for highly heterogeneous
  // ratios the Square-Corner communicates less than the Block-Rectangle.
  const int n = 100;
  const Ratio high{10, 1, 1};
  const auto sc = makeCandidate(CandidateShape::kSquareCorner, n, high);
  const auto br = makeCandidate(CandidateShape::kBlockRectangle, n, high);
  EXPECT_LT(sc.volumeOfCommunication(), br.volumeOfCommunication());
}

TEST(CandidateTest, BlockRectangleWinsAtLowHeterogeneity) {
  // Near-homogeneous ratios favour rectangular partitions (paper Fig. 14:
  // Block-Rectangle is better until heterogeneity grows).
  const int n = 102;
  const Ratio low{2.5, 1, 1};
  ASSERT_TRUE(candidateFeasible(CandidateShape::kSquareCorner, n, low));
  const auto sc = makeCandidate(CandidateShape::kSquareCorner, n, low);
  const auto br = makeCandidate(CandidateShape::kBlockRectangle, n, low);
  EXPECT_GT(sc.volumeOfCommunication(), br.volumeOfCommunication());
}

}  // namespace
}  // namespace pushpart
