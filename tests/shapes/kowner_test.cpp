// The two- and four-owner candidate shapes (shapes/kowner.hpp).
#include "shapes/kowner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "dfa/dfa.hpp"
#include "grid/builder.hpp"
#include "grid/metrics.hpp"
#include "push/push.hpp"
#include "support/check.hpp"

namespace pushpart {
namespace {

/// The slow owner of a two-owner partition.
constexpr Proc kSlow = ownerOfRank(1, 2);

TEST(TwoProcShapeTest, StraightLineGeometry) {
  const int n = 60;
  const auto q = makeTwoProcCandidate(TwoProcShape::kStraightLine, n, 3.0);
  // Slow processor holds a full-height strip on the right.
  const Rect r = q.enclosingRect(kSlow);
  EXPECT_EQ(r.rowBegin, 0);
  EXPECT_EQ(r.rowEnd, n);
  EXPECT_EQ(r.colEnd, n);
  EXPECT_TRUE(isAsymptoticallyRectangular(q, kSlow));
  EXPECT_EQ(q.count(kSlow), static_cast<std::int64_t>(n) * n / 4);
}

TEST(TwoProcShapeTest, SquareCornerGeometry) {
  const int n = 60;
  const auto q = makeTwoProcCandidate(TwoProcShape::kSquareCorner, n, 8.0);
  const Rect r = q.enclosingRect(kSlow);
  EXPECT_EQ(r.rowEnd, n);
  EXPECT_EQ(r.colEnd, n);
  EXPECT_LE(std::abs(r.width() - r.height()), 1);
  EXPECT_TRUE(isAsymptoticallyRectangular(q, kSlow));
}

TEST(TwoProcShapeTest, ExactCounts) {
  const int n = 50;
  for (double p : {1.0, 3.0, 8.0, 15.0}) {
    const auto slow = static_cast<std::int64_t>(
        std::floor(n * n / (p + 1.0)));
    for (TwoProcShape s :
         {TwoProcShape::kStraightLine, TwoProcShape::kSquareCorner,
          TwoProcShape::kRectangleCorner}) {
      const auto q = makeTwoProcCandidate(s, n, p);
      EXPECT_EQ(q.count(kSlow), slow) << twoProcShapeName(s) << " p=" << p;
      EXPECT_EQ(q.count(q.fastest()) + q.count(kSlow),
                static_cast<std::int64_t>(n) * n);
    }
  }
}

TEST(TwoProcClosedFormTest, MatchesMeasuredVoC) {
  const int n = 200;
  for (double p : {1.0, 2.0, 3.0, 5.0, 10.0}) {
    for (TwoProcShape s :
         {TwoProcShape::kStraightLine, TwoProcShape::kSquareCorner,
          TwoProcShape::kRectangleCorner}) {
      const auto q = makeTwoProcCandidate(s, n, p);
      const double measured =
          static_cast<double>(q.volumeOfCommunication()) /
          (static_cast<double>(n) * n);
      EXPECT_NEAR(measured, twoProcClosedFormVoC(s, p), 4.0 / n + 0.01)
          << twoProcShapeName(s) << " p=" << p;
    }
  }
}

TEST(TwoProcClosedFormTest, ThreeToOneCrossover) {
  // The classical result the paper builds on: the Square-Corner beats the
  // Straight-Line exactly above P_r = 3.
  EXPECT_DOUBLE_EQ(kTwoProcCrossover, 3.0);
  EXPECT_GT(twoProcClosedFormVoC(TwoProcShape::kSquareCorner, 2.5),
            twoProcClosedFormVoC(TwoProcShape::kStraightLine, 2.5));
  EXPECT_NEAR(twoProcClosedFormVoC(TwoProcShape::kSquareCorner, 3.0),
              twoProcClosedFormVoC(TwoProcShape::kStraightLine, 3.0), 1e-12);
  EXPECT_LT(twoProcClosedFormVoC(TwoProcShape::kSquareCorner, 4.0),
            twoProcClosedFormVoC(TwoProcShape::kStraightLine, 4.0));
}

TEST(TwoProcClosedFormTest, CrossoverOnGrids) {
  const int n = 240;
  for (double p : {2.0, 5.0}) {
    const auto sc = makeTwoProcCandidate(TwoProcShape::kSquareCorner, n, p);
    const auto sl = makeTwoProcCandidate(TwoProcShape::kStraightLine, n, p);
    const bool scWins =
        sc.volumeOfCommunication() < sl.volumeOfCommunication();
    EXPECT_EQ(scWins, p > kTwoProcCrossover) << "p=" << p;
  }
}

TEST(TwoProcClosedFormTest, RectangleCornerAlwaysInferiorToSquare) {
  // AM–GM: w + h ≥ 2√(wh), equality only for the square — the paper's
  // "Rectangle-Corner always inferior" result. The theorem covers *corner*
  // rectangles (both dimensions < N); at low heterogeneity a wide-enough
  // aspect degenerates the rectangle into a straight line, which is a
  // different shape family.
  for (double p : {4.0, 6.0, 10.0}) {
    for (double aspect : {1.5, 2.0}) {
      const double share = 1.0 / (p + 1.0);
      ASSERT_LT(std::sqrt(share * aspect), 1.0) << "degenerate configuration";
      EXPECT_GT(twoProcClosedFormVoC(TwoProcShape::kRectangleCorner, p, aspect),
                twoProcClosedFormVoC(TwoProcShape::kSquareCorner, p));
    }
  }
  // And the degenerate wide rectangle legitimately becomes a straight line.
  EXPECT_DOUBLE_EQ(twoProcClosedFormVoC(TwoProcShape::kRectangleCorner, 1.0, 2.0),
                   twoProcClosedFormVoC(TwoProcShape::kStraightLine, 1.0));
}

TEST(TwoProcShapeTest, CandidatesArePushFixedPoints) {
  // Canonical two-processor shapes admit no strictly improving push.
  const int n = 40;
  const PushOptions strictOnly{.allowEqualVoC = false};
  for (double p : {3.0, 8.0}) {
    for (TwoProcShape s :
         {TwoProcShape::kStraightLine, TwoProcShape::kSquareCorner}) {
      auto q = makeTwoProcCandidate(s, n, p);
      for (Direction d : kAllDirections) {
        EXPECT_FALSE(tryPush(q, kSlow, d, strictOnly).applied)
            << twoProcShapeName(s) << " " << directionName(d);
      }
    }
  }
}

TEST(TwoProcShapeTest, InvalidArgumentsRejected) {
  EXPECT_THROW(makeTwoProcCandidate(TwoProcShape::kSquareCorner, 40, 0.5),
               CheckError);
  EXPECT_THROW(
      makeTwoProcCandidate(TwoProcShape::kRectangleCorner, 40, 3.0, -1.0),
      CheckError);
}

TEST(TwoProcShapeTest, FeasibleIffTheSlowOwnerGetsACell) {
  // Every shape builds exactly when the slow owner's floored share of the
  // grid is at least one cell; the family skips the rest.
  int built = 0;
  for (int n = 1; n <= 12; ++n)
    for (const double p : {1.0, 3.0, 8.0, 30.0, 200.0}) {
      const auto slow = static_cast<std::int64_t>(n) * n /
                        static_cast<std::int64_t>(p + 1.0);
      EXPECT_EQ(twoProcFeasible(n, p), slow > 0) << "n=" << n << " p=" << p;
      if (!twoProcFeasible(n, p)) continue;
      for (const TwoProcShape shape :
           {TwoProcShape::kStraightLine, TwoProcShape::kSquareCorner,
            TwoProcShape::kRectangleCorner}) {
        const Partition q = makeTwoProcCandidate(shape, n, p);
        EXPECT_EQ(q.count(kSlow), slow)
            << twoProcShapeName(shape) << " n=" << n << " p=" << p;
        ++built;
      }
    }
  EXPECT_GT(built, 100);
  EXPECT_FALSE(twoProcFeasible(40, 0.5));
  EXPECT_FALSE(twoProcFeasible(0, 3.0));
}

const NSpeeds kSpeeds = NSpeeds::parse("8:4:2:1");

TEST(FourProcShapeTest, ExactCountsForAllShapes) {
  const int n = 60;
  const auto counts = kSpeeds.elementCounts(n);
  for (FourProcShape shape :
       {FourProcShape::kCornerSquares, FourProcShape::kBlockColumns,
        FourProcShape::kColumnStrips}) {
    if (!fourProcFeasible(shape, n, kSpeeds)) continue;
    const auto q = makeFourProcCandidate(shape, n, kSpeeds);
    for (int x = 0; x < 4; ++x)
      EXPECT_EQ(q.count(procFromIndex(x)), counts[static_cast<std::size_t>(x)])
          << fourProcShapeName(shape) << " owner " << x;
    q.validateCounters();
  }
}

TEST(FourProcShapeTest, EveryFeasibleInputBuildsWithExactCounts) {
  // Small grids are where integer lanes bind: unless each lane end is
  // clamped, a proportional Block-Columns split leaves a later owner fewer
  // than ⌈count/n⌉ columns (n = 5 at 8:4:2:1, n = 4 at 4:3:2:1, n = 7 at
  // 16:8:4:1) and the build throws.
  int built = 0;
  for (const char* spec :
       {"8:4:2:1", "4:3:2:1", "16:8:4:1", "1:1:1:1", "2:1:1:1", "3:2:2:1",
        "10:9:8:7", "20:2:2:1", "4:1:1:1", "5:4:1:1", "6:3:2:1",
        "100:3:2:1"}) {
    const auto speeds = NSpeeds::parse(spec);
    for (int n = 3; n <= 64; ++n) {
      const auto counts = speeds.elementCounts(n);
      for (FourProcShape shape :
           {FourProcShape::kCornerSquares, FourProcShape::kBlockColumns,
            FourProcShape::kColumnStrips}) {
        if (!fourProcFeasible(shape, n, speeds)) continue;
        const auto where = [&] {
          return std::string(fourProcShapeName(shape)) + " n=" +
                 std::to_string(n) + " speeds " + spec;
        };
        ASSERT_NO_THROW({
          const auto q = makeFourProcCandidate(shape, n, speeds);
          for (int x = 0; x < 4; ++x)
            EXPECT_EQ(q.count(procFromIndex(x)),
                      counts[static_cast<std::size_t>(x)])
                << where() << " owner " << x;
          q.validateCounters();
        }) << where();
        ++built;
      }
    }
  }
  EXPECT_GT(built, 1000);
}

TEST(FourProcShapeTest, StripShapesAlwaysFeasible) {
  for (const char* spec : {"8:4:2:1", "4:1:1:1", "10:9:8:7"}) {
    const auto speeds = NSpeeds::parse(spec);
    EXPECT_TRUE(fourProcFeasible(FourProcShape::kBlockColumns, 40, speeds))
        << spec;
    EXPECT_TRUE(fourProcFeasible(FourProcShape::kColumnStrips, 40, speeds))
        << spec;
  }
}

TEST(FourProcShapeTest, CornerSquaresNeedRoom) {
  // Homogeneous speeds tile exactly into quadrants — feasible.
  EXPECT_TRUE(fourProcFeasible(FourProcShape::kCornerSquares, 40,
                               NSpeeds::parse("1:1:1:1")));
  // When the top-left and bottom-left squares together exceed the matrix
  // height, the corner placement cannot avoid sharing lines.
  EXPECT_FALSE(fourProcFeasible(FourProcShape::kCornerSquares, 40,
                                NSpeeds::parse("1.3:1.3:1:1.3")));
  // Strongly heterogeneous: small squares fit in separate corners.
  EXPECT_TRUE(fourProcFeasible(FourProcShape::kCornerSquares, 60,
                               NSpeeds::parse("20:2:2:1")));
}

TEST(FourProcShapeTest, WrongProcessorCountRejected) {
  EXPECT_FALSE(
      fourProcFeasible(FourProcShape::kBlockColumns, 40, NSpeeds::parse("3:1")));
  EXPECT_THROW(
      makeFourProcCandidate(FourProcShape::kBlockColumns, 40,
                            NSpeeds::parse("3:2:1")),
      std::invalid_argument);
}

TEST(FourProcShapeTest, SlowProcessorsAsymptoticallyRectangular) {
  const int n = 60;
  for (FourProcShape shape :
       {FourProcShape::kBlockColumns, FourProcShape::kColumnStrips}) {
    const auto q = makeFourProcCandidate(shape, n, kSpeeds);
    for (int x = 0; x < 3; ++x)
      EXPECT_TRUE(isAsymptoticallyRectangular(q, procFromIndex(x)))
          << fourProcShapeName(shape) << " owner " << x;
  }
}

TEST(FourProcShapeTest, CornerSquaresAreNearSquares) {
  const auto speeds = NSpeeds::parse("20:2:2:1");
  const auto q = makeFourProcCandidate(FourProcShape::kCornerSquares, 60, speeds);
  for (int x = 0; x < 3; ++x) {
    const Rect r = q.enclosingRect(procFromIndex(x));
    EXPECT_LE(std::abs(r.width() - r.height()), 1) << "owner " << x;
  }
}

TEST(FourProcShapeTest, CandidatesAreCondensed) {
  // The canonical shapes admit no strictly improving push.
  const PushOptions strictOnly{.allowEqualVoC = false};
  for (FourProcShape shape :
       {FourProcShape::kBlockColumns, FourProcShape::kColumnStrips}) {
    auto q = makeFourProcCandidate(shape, 40, kSpeeds);
    for (int x = 0; x < 3; ++x)
      for (Direction d : kAllDirections)
        EXPECT_FALSE(tryPush(q, procFromIndex(x), d, strictOnly).applied)
            << fourProcShapeName(shape) << " owner " << x << " "
            << directionName(d);
  }
}

TEST(FourProcShapeTest, SearchNeverBeatsCandidates) {
  // The weak form of Postulate 1, carried to k = 4: across a batch of
  // randomized condensations, nothing undercuts the best canonical shape.
  const int n = 32;
  std::int64_t bestCandidate = std::numeric_limits<std::int64_t>::max();
  for (FourProcShape shape :
       {FourProcShape::kCornerSquares, FourProcShape::kBlockColumns,
        FourProcShape::kColumnStrips}) {
    if (!fourProcFeasible(shape, n, kSpeeds)) continue;
    bestCandidate = std::min(
        bestCandidate,
        makeFourProcCandidate(shape, n, kSpeeds).volumeOfCommunication());
  }
  ASSERT_LT(bestCandidate, std::numeric_limits<std::int64_t>::max());

  Rng rng(404);
  for (int run = 0; run < 10; ++run) {
    Partition q0 = randomPartition(n, kSpeeds, rng);
    const Schedule schedule = Schedule::random(rng, kSpeeds.owners());
    const DfaResult result = runDfa(std::move(q0), schedule);
    EXPECT_LE(bestCandidate, result.vocEnd) << "run " << run;
  }
}

}  // namespace
}  // namespace pushpart
