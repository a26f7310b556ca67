#include "push/push.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "grid/builder.hpp"
#include "grid/metrics.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

// ---------------------------------------------------------------------------
// Directed examples
// ---------------------------------------------------------------------------

TEST(PushTest, SimpleDownPushCleansTopRow) {
  // R occupies a 3-row column plus a stray edge element; both top-row
  // elements can drop into interior P cells, strictly reducing VoC.
  auto q = fromAscii(
      "RRPP\n"
      "RPPP\n"
      "RPPP\n"
      "PPPP\n");
  const auto before = q.volumeOfCommunication();
  const auto out = tryPush(q, Proc::R, Direction::Down);
  ASSERT_TRUE(out.applied);
  EXPECT_LT(q.volumeOfCommunication(), before);
  EXPECT_EQ(out.vocAfter, q.volumeOfCommunication());
  // Top row of R's old enclosing rectangle is clean of R.
  EXPECT_EQ(q.rowCount(Proc::R, 0), 0);
  // Counts conserved.
  EXPECT_EQ(q.count(Proc::R), 4);
  q.validateCounters();
}

TEST(PushTest, RectangleIsFixedPoint) {
  // A processor already forming a solid rectangle cannot be pushed in any
  // direction: there is no interior non-R cell inside its enclosing rect.
  auto q = fromAscii(
      "RRPP\n"
      "RRPP\n"
      "PPPP\n"
      "PPPP\n");
  for (Direction d : kAllDirections) {
    const auto out = tryPush(q, Proc::R, d);
    EXPECT_FALSE(out.applied) << directionName(d);
  }
}

TEST(PushTest, SingleRowCannotBePushedVertically) {
  auto q = fromAscii(
      "PPPP\n"
      "RRRP\n"
      "PPPP\n"
      "PPPP\n");
  EXPECT_FALSE(tryPush(q, Proc::R, Direction::Down).applied);
  EXPECT_FALSE(tryPush(q, Proc::R, Direction::Up).applied);
}

TEST(PushTest, SingleColumnCannotBePushedHorizontally) {
  auto q = fromAscii(
      "PRPP\n"
      "PRPP\n"
      "PRPP\n"
      "PPPP\n");
  EXPECT_FALSE(tryPush(q, Proc::R, Direction::Left).applied);
  EXPECT_FALSE(tryPush(q, Proc::R, Direction::Right).applied);
}

TEST(PushTest, FailedPushLeavesPartitionUntouched) {
  auto q = fromAscii(
      "RRPP\n"
      "RRPP\n"
      "PPPP\n"
      "PPPP\n");
  const auto original = q;
  for (Direction d : kAllDirections) {
    (void)tryPush(q, Proc::R, d);
    EXPECT_EQ(q, original) << directionName(d);
  }
}

TEST(PushTest, ActiveProcessorPIsRejected) {
  Partition q(4);
  EXPECT_THROW(tryPush(q, Proc::P, Direction::Down), CheckError);
}

TEST(PushTest, UpPushMirrorsDownPush) {
  auto down = fromAscii(
      "RRPP\n"
      "RPPP\n"
      "RPPP\n"
      "PPPP\n");
  // Vertical mirror of the same shape.
  auto up = fromAscii(
      "PPPP\n"
      "RPPP\n"
      "RPPP\n"
      "RRPP\n");
  const auto outDown = tryPush(down, Proc::R, Direction::Down);
  const auto outUp = tryPush(up, Proc::R, Direction::Up);
  ASSERT_TRUE(outDown.applied);
  ASSERT_TRUE(outUp.applied);
  EXPECT_EQ(outDown.vocAfter, outUp.vocAfter);
  EXPECT_EQ(outDown.elementsMoved, outUp.elementsMoved);
}

TEST(PushTest, LeftRightPushMirrorsVertical) {
  auto right = fromAscii(
      "RRRP\n"
      "RPPP\n"
      "PPPP\n"
      "PPPP\n");
  const auto out = tryPush(right, Proc::R, Direction::Right);
  ASSERT_TRUE(out.applied);
  // Left column of R's old rect must now be clean of R.
  EXPECT_EQ(right.colCount(Proc::R, 0), 0);
}

TEST(PushTest, DisplacedOwnerReceivesVacatedCell) {
  // When R's edge element moves down, the displaced owner (P here) must
  // receive exactly the vacated cell: counts stay fixed.
  auto q = fromAscii(
      "PRRP\n"
      "PRPP\n"
      "PRPP\n"
      "PPPP\n");
  const auto pBefore = q.count(Proc::P);
  const auto out = tryPush(q, Proc::R, Direction::Down);
  ASSERT_TRUE(out.applied);
  EXPECT_EQ(q.count(Proc::P), pBefore);
  EXPECT_EQ(q.count(Proc::R), 4);
}

TEST(PushTest, ThreeProcPushRespectsSRectangle) {
  // S sits below R; pushing R down may hand cells to S only without growing
  // S's enclosing rectangle.
  auto q = fromAscii(
      "PRRPPP\n"
      "PRRPPP\n"
      "PRSSPP\n"
      "PPSSPP\n"
      "PPPPPP\n"
      "PPPPPP\n");
  const Rect sBefore = q.enclosingRect(Proc::S);
  const auto out = tryPush(q, Proc::R, Direction::Down);
  if (out.applied) {
    EXPECT_TRUE(sBefore.contains(q.enclosingRect(Proc::S)));
    EXPECT_LE(q.volumeOfCommunication(), out.vocBefore);
  }
}

TEST(PushTest, OutcomeReportsMetadata) {
  auto q = fromAscii(
      "RRPP\n"
      "RPPP\n"
      "RPPP\n"
      "PPPP\n");
  const auto out = tryPush(q, Proc::R, Direction::Down);
  ASSERT_TRUE(out.applied);
  EXPECT_EQ(out.active, Proc::R);
  EXPECT_EQ(out.direction, Direction::Down);
  EXPECT_EQ(out.elementsMoved, 2);
  EXPECT_TRUE(out.improvedVoC());
}

TEST(PushTest, StrictOnlyOptionsSkipEqualVoCPushes) {
  // Construct a state where only a VoC-preserving (Type 5/6) push exists:
  // R is a 2x2 square plus nothing else — no push at all. Then check a case
  // where an equal push would apply but strict mode refuses.
  auto q = fromAscii(
      "PPPP\n"
      "RRRR\n"
      "RRPP\n"
      "PPPP\n");
  Partition strictCopy = q;
  const PushOptions strictOnly{.allowEqualVoC = false};
  const auto strictOut = tryPush(strictCopy, Proc::R, Direction::Down, strictOnly);
  const auto anyOut = tryPush(q, Proc::R, Direction::Down);
  if (anyOut.applied && !strictOut.applied) {
    EXPECT_EQ(anyOut.vocBefore, anyOut.vocAfter);
  }
  if (strictOut.applied) {
    EXPECT_LT(strictOut.vocAfter, strictOut.vocBefore);
  }
}

TEST(PushAvailableTest, DoesNotMutate) {
  auto q = fromAscii(
      "RRPP\n"
      "RPPP\n"
      "RPPP\n"
      "PPPP\n");
  const auto original = q;
  EXPECT_TRUE(pushAvailable(q, Proc::R, kAllDirections));
  EXPECT_EQ(q, original);
}

TEST(PushAvailableTest, FalseForRectangles) {
  auto q = fromAscii(
      "RRPP\n"
      "RRPP\n"
      "PPSS\n"
      "PPSS\n");
  EXPECT_FALSE(pushAvailable(q, Proc::R, kAllDirections));
  EXPECT_FALSE(pushAvailable(q, Proc::S, kAllDirections));
}

// ---------------------------------------------------------------------------
// Property tests: the paper's Push guarantees on randomized partitions
// ---------------------------------------------------------------------------

using PushPropParam = std::tuple<int, std::string, std::uint64_t>;

class PushPropertyTest : public ::testing::TestWithParam<PushPropParam> {};

TEST_P(PushPropertyTest, PushNeverIncreasesVoCNorGrowsRects) {
  const auto [n, ratioStr, seed] = GetParam();
  const auto ratio = Ratio::parse(ratioStr);
  Rng rng(seed);
  auto q = randomPartition(n, ratio, rng);
  const auto counts0 = ratio.elementCounts(n);

  // Drive many random pushes; after each applied push re-check invariants.
  for (int step = 0; step < 300; ++step) {
    const Proc active = kSlowProcs[rng.below(2)];
    const Direction dir = kAllDirections[rng.below(4)];
    const auto vocBefore = q.volumeOfCommunication();
    std::array<Rect, kNumProcs> rectBefore;
    for (Proc x : kAllProcs) rectBefore[procSlot(x)] = q.enclosingRect(x);

    const auto out = tryPush(q, active, dir);
    ASSERT_LE(q.volumeOfCommunication(), vocBefore);
    if (out.applied) {
      // The slow processors' rectangles never grow; P's box is deliberately
      // unconstrained (DESIGN.md deviation 6) — only its count is conserved.
      for (Proc x : kSlowProcs) {
        ASSERT_TRUE(rectBefore[procSlot(x)].contains(q.enclosingRect(x)))
            << "rect of " << procName(x) << " grew";
      }
      for (Proc x : kAllProcs) ASSERT_EQ(q.count(x), counts0[procSlot(x)]);
    } else {
      ASSERT_EQ(q.volumeOfCommunication(), vocBefore);
    }
  }
  q.validateCounters();
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, PushPropertyTest,
    ::testing::Combine(::testing::Values(12, 20, 35),
                       ::testing::Values("2:1:1", "5:2:1", "10:1:1", "2:2:1",
                                         "5:4:1"),
                       ::testing::Values(7u, 1234u)));

TEST(PushSequenceTest, RepeatedPushesReachFixedPointOnSmallGrid) {
  Rng rng(99);
  auto q = randomPartition(15, Ratio{3, 1, 1}, rng);
  // Strict pushes must terminate: VoC is a decreasing non-negative integer.
  const PushOptions strictOnly{.allowEqualVoC = false};
  int guard = 0;
  bool any = true;
  while (any && guard < 100000) {
    any = false;
    for (Proc active : kSlowProcs)
      for (Direction d : kAllDirections)
        if (tryPush(q, active, d, strictOnly).applied) {
          any = true;
          ++guard;
        }
  }
  EXPECT_LT(guard, 100000);
  // At the fixed point no strictly-improving push remains.
  for (Proc active : kSlowProcs)
    EXPECT_FALSE(pushAvailable(q, active, kAllDirections, strictOnly));
}

}  // namespace
}  // namespace pushpart
