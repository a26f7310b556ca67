#include "plan/comm_plan.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "grid/builder.hpp"
#include "shapes/candidates.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

TEST(CommPlanTest, UniformPartitionNeedsNoTransfers) {
  Partition q(6);
  const auto plan = buildElementPlan(q);
  ASSERT_EQ(plan.size(), 6u);
  for (const auto& step : plan) EXPECT_EQ(step.size(), 0u);
  EXPECT_TRUE(verifyElementPlan(q, plan));
}

TEST(CommPlanTest, SingleForeignCellSchedule) {
  // One R cell at (1, 2) in a 4x4 P grid. For pivot k = 2 the A-column
  // contains the R cell: P needs it (P has cells in row 1) and R needs the
  // P-owned cells of column 2 it will multiply against... R owns only C(1,2),
  // needing A(1,k) for all k and B(k,2) for all k.
  Partition q(4);
  q.set(1, 2, Proc::R);
  const auto plan = buildElementPlan(q);
  EXPECT_TRUE(verifyElementPlan(q, plan));

  // Total transfers must equal Eq. 1: row 1 has 2 owners, column 2 has 2
  // owners → VoC = 4 + 4 = 8.
  std::size_t total = 0;
  for (const auto& step : plan) total += step.size();
  EXPECT_EQ(total, 8u);

  // Pivot 2's A-column holds the R→P delivery of element (1,2).
  const auto& step2 = plan[2];
  bool rSendsToP = false;
  for (const auto& t : step2.aColumn)
    rSendsToP |= (t.from == Proc::R && t.to == Proc::P && t.i == 1 && t.j == 2);
  EXPECT_TRUE(rSendsToP);
}

TEST(CommPlanTest, PlanVolumesMatchPairVolumes) {
  Rng rng(12);
  const auto q = randomPartition(20, Ratio{3, 2, 1}, rng);
  const auto plan = buildElementPlan(q);
  EXPECT_EQ(planVolumes(plan), pairVolumes(q));
  std::int64_t total = 0;
  for (const auto& row : planVolumes(plan))
    for (auto v : row) total += v;
  EXPECT_EQ(total, q.volumeOfCommunication());
}

using PlanParam = std::tuple<CandidateShape, std::string>;

class CommPlanCandidateTest : public ::testing::TestWithParam<PlanParam> {};

TEST_P(CommPlanCandidateTest, PlansForCanonicalShapesVerify) {
  const auto [shape, ratioStr] = GetParam();
  const auto ratio = Ratio::parse(ratioStr);
  const int n = 30;
  if (!candidateFeasible(shape, n, ratio)) GTEST_SKIP();
  const auto q = makeCandidate(shape, n, ratio);
  const auto plan = buildElementPlan(q);
  EXPECT_TRUE(verifyElementPlan(q, plan));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CommPlanCandidateTest,
    ::testing::Combine(::testing::ValuesIn(kAllCandidates),
                       ::testing::Values("2:1:1", "5:2:1", "10:1:1")));

TEST(CommPlanTest, RandomPartitionsVerify) {
  Rng rng(13);
  for (int trial = 0; trial < 6; ++trial) {
    const auto q = randomPartition(16, Ratio{4, 2, 1}, rng);
    EXPECT_TRUE(verifyElementPlan(q, buildElementPlan(q)));
  }
}

TEST(CommPlanVerifyTest, CatchesMissingTransfer) {
  Partition q(4);
  q.set(1, 2, Proc::R);
  auto plan = buildElementPlan(q);
  // Drop one delivery: completeness check must fail.
  for (auto& step : plan)
    if (!step.aColumn.empty()) {
      step.aColumn.pop_back();
      break;
    }
  EXPECT_FALSE(verifyElementPlan(q, plan));
}

TEST(CommPlanVerifyTest, CatchesDuplicateTransfer) {
  Partition q(4);
  q.set(1, 2, Proc::R);
  auto plan = buildElementPlan(q);
  for (auto& step : plan)
    if (!step.aColumn.empty()) {
      step.aColumn.push_back(step.aColumn.back());
      break;
    }
  EXPECT_FALSE(verifyElementPlan(q, plan));
}

TEST(CommPlanVerifyTest, CatchesWrongSender) {
  Partition q(4);
  q.set(1, 2, Proc::R);
  auto plan = buildElementPlan(q);
  for (auto& step : plan)
    if (!step.aColumn.empty()) {
      step.aColumn.front().from = Proc::S;  // S does not own that cell
      break;
    }
  EXPECT_FALSE(verifyElementPlan(q, plan));
}

TEST(CommPlanVerifyTest, CatchesUselessDelivery) {
  Partition q(4);
  q.set(1, 2, Proc::R);
  auto plan = buildElementPlan(q);
  // Send something to S, which owns nothing and needs nothing.
  plan[0].aColumn.push_back({0, 0, Proc::P, Proc::S});
  EXPECT_FALSE(verifyElementPlan(q, plan));
}

TEST(CommPlanVerifyTest, CatchesWrongPivotCoordinates) {
  Partition q(4);
  q.set(1, 2, Proc::R);
  auto plan = buildElementPlan(q);
  for (auto& step : plan)
    if (!step.aColumn.empty()) {
      step.aColumn.front().j ^= 1;  // no longer the pivot column
      EXPECT_FALSE(verifyElementPlan(q, plan));
      return;
    }
}

TEST(CommPlanVerifyTest, RejectsAColumnRowOutsideTheGrid) {
  Partition q(4);
  q.set(1, 2, Proc::R);
  for (int row : {4, -1}) {
    auto plan = buildElementPlan(q);
    plan[2].aColumn.push_back({row, 2, Proc::P, Proc::R});
    EXPECT_FALSE(verifyElementPlan(q, plan)) << "row " << row;
  }
}

TEST(CommPlanVerifyTest, RejectsBRowColumnOutsideTheGrid) {
  Partition q(4);
  q.set(1, 2, Proc::R);
  auto plan = buildElementPlan(q);
  plan[1].bRow.push_back({1, 4, Proc::P, Proc::R});
  EXPECT_FALSE(verifyElementPlan(q, plan));
}

TEST(CommPlanVerifyTest, RejectsAReceiverThatIsNoProcessor) {
  Partition q(4);
  q.set(1, 2, Proc::R);
  auto plan = buildElementPlan(q);
  plan[0].aColumn.push_back({1, 0, Proc::P, static_cast<Proc>(3)});
  EXPECT_FALSE(verifyElementPlan(q, plan));
}

TEST(CommPlanRangeTest, SuffixPlanVerifiesAtEveryPivot) {
  Rng rng(14);
  const auto q = randomPartition(12, Ratio{3, 2, 1}, rng);
  for (int firstPivot = 0; firstPivot <= q.n(); ++firstPivot) {
    const auto plan = buildElementPlanRange(q, firstPivot);
    EXPECT_EQ(plan.size(), static_cast<std::size_t>(q.n() - firstPivot));
    EXPECT_TRUE(verifyElementPlanRange(q, plan, firstPivot))
        << "firstPivot=" << firstPivot;
  }
}

TEST(CommPlanRangeTest, PivotZeroReproducesTheFullPlan) {
  Rng rng(15);
  const auto q = randomPartition(14, Ratio{4, 2, 1}, rng);
  const auto full = buildElementPlan(q);
  const auto range = buildElementPlanRange(q, 0);
  ASSERT_EQ(full.size(), range.size());
  for (std::size_t k = 0; k < full.size(); ++k) {
    EXPECT_EQ(full[k].pivot, range[k].pivot);
    EXPECT_EQ(full[k].aColumn, range[k].aColumn);
    EXPECT_EQ(full[k].bRow, range[k].bRow);
  }
}

TEST(CommPlanRangeTest, EmptySuffixIsTriviallyComplete) {
  Rng rng(16);
  const auto q = randomPartition(10, Ratio{2, 1, 1}, rng);
  const auto plan = buildElementPlanRange(q, q.n());
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(verifyElementPlanRange(q, plan, q.n()));
}

TEST(CommPlanRangeTest, MismatchedFirstPivotRejected) {
  Rng rng(17);
  const auto q = randomPartition(12, Ratio{3, 1, 1}, rng);
  const auto plan = buildElementPlanRange(q, 6);
  // Off-by-one epochs have the wrong size and the wrong pivot labels.
  EXPECT_FALSE(verifyElementPlanRange(q, plan, 5));
  EXPECT_FALSE(verifyElementPlanRange(q, plan, 7));
  EXPECT_FALSE(verifyElementPlanRange(q, plan, 0));
}

TEST(CommPlanRangeTest, TamperedSuffixPlanRejected) {
  Partition q(6);
  q.set(1, 2, Proc::R);
  q.set(4, 3, Proc::S);
  auto plan = buildElementPlanRange(q, 2);
  ASSERT_TRUE(verifyElementPlanRange(q, plan, 2));
  for (auto& step : plan)
    if (!step.aColumn.empty()) {
      step.aColumn.pop_back();
      break;
    }
  EXPECT_FALSE(verifyElementPlanRange(q, plan, 2));
}

TEST(CommPlanTest, SquareCornerPlanHasNoSlowToSlowTraffic) {
  // R and S share no rows or columns in a Square-Corner partition, so the
  // schedule must contain no R↔S transfer — the property behind its star-
  // topology immunity (bench/topology_star).
  const auto q = makeCandidate(CandidateShape::kSquareCorner, 40, Ratio{8, 1, 1});
  const auto v = planVolumes(buildElementPlan(q));
  EXPECT_EQ(v[procSlot(Proc::R)][procSlot(Proc::S)], 0);
  EXPECT_EQ(v[procSlot(Proc::S)][procSlot(Proc::R)], 0);
}

}  // namespace
}  // namespace pushpart
