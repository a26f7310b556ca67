#include "plan/rebalance.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <string>

#include "grid/builder.hpp"
#include "shapes/candidates.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

TEST(RebalanceTest, ConservesEveryCellOfTheDeadProcessor) {
  Rng rng(3);
  const Ratio ratio{3, 2, 1};
  const auto q = randomPartition(18, ratio, rng);
  const auto result = rebalanceOnDeath(q, Proc::R, ratio, 9);

  EXPECT_EQ(result.dead, Proc::R);
  EXPECT_EQ(result.fromPivot, 9);
  EXPECT_EQ(result.after.count(Proc::R), 0);
  EXPECT_EQ(result.reassigned, q.count(Proc::R));
  EXPECT_EQ(result.gained[procSlot(Proc::R)], 0);
  EXPECT_EQ(result.gained[procSlot(Proc::P)] + result.gained[procSlot(Proc::S)],
            result.reassigned);
  EXPECT_EQ(result.after.count(Proc::P),
            q.count(Proc::P) + result.gained[procSlot(Proc::P)]);
  EXPECT_EQ(result.after.count(Proc::S),
            q.count(Proc::S) + result.gained[procSlot(Proc::S)]);
  result.after.validateCounters();
  EXPECT_EQ(result.vocBefore, q.volumeOfCommunication());
  EXPECT_EQ(result.vocAfter, result.after.volumeOfCommunication());
}

TEST(RebalanceTest, SplitsTheLoadInProportionToSurvivorSpeeds) {
  // R dies; P (speed 3) and S (speed 1) survive, so P should absorb ~3/4 of
  // the dead processor's cells (the faster survivor takes the rounding).
  Rng rng(4);
  const Ratio ratio{3, 1, 1};
  const auto q = randomPartition(24, ratio, rng);
  const auto result = rebalanceOnDeath(q, Proc::R, ratio, 0);
  const double shareP =
      static_cast<double>(result.gained[procSlot(Proc::P)]) /
      static_cast<double>(result.reassigned);
  EXPECT_NEAR(shareP, 0.75, 1.0 / static_cast<double>(result.reassigned));
}

TEST(RebalanceTest, EveryProcessorCanDie) {
  Rng rng(5);
  const Ratio ratio{4, 2, 1};
  const auto q = randomPartition(16, ratio, rng);
  for (Proc dead : kAllProcs) {
    const auto result = rebalanceOnDeath(q, dead, ratio, 8);
    EXPECT_EQ(result.after.count(dead), 0) << procName(dead);
    EXPECT_EQ(result.reassigned, q.count(dead)) << procName(dead);
    EXPECT_TRUE(result.deltaPlanVerified) << procName(dead);
  }
}

TEST(RebalanceTest, DeltaPlanCoversExactlyTheFailoverEpoch) {
  Rng rng(6);
  const Ratio ratio{5, 2, 1};
  const auto q = randomPartition(20, ratio, rng);
  for (int fromPivot : {0, 7, 20}) {
    const auto result = rebalanceOnDeath(q, Proc::S, ratio, fromPivot);
    EXPECT_EQ(result.deltaPlan.size(),
              static_cast<std::size_t>(q.n() - fromPivot));
    EXPECT_TRUE(result.deltaPlanVerified);
    // Independent re-check of the emitted schedule.
    EXPECT_TRUE(
        verifyElementPlanRange(result.after, result.deltaPlan, fromPivot));
  }
}

TEST(RebalanceTest, FullEpochPlanMatchesAFreshBuild) {
  const Ratio ratio{5, 2, 1};
  const auto q = makeCandidate(CandidateShape::kSquareCorner, 20, ratio);
  const auto result = rebalanceOnDeath(q, Proc::R, ratio, 0);
  EXPECT_TRUE(verifyElementPlan(result.after, result.deltaPlan));
}

TEST(RebalanceTest, CondensationDoesNotLoseTheQuota) {
  // The Push condensation moves cells around but must preserve per-survivor
  // totals — gained[] is derived from the final shape, not the raw split.
  Rng rng(7);
  const Ratio ratio{2, 1, 1};
  const auto q = randomPartition(22, ratio, rng);
  const auto a = rebalanceOnDeath(q, Proc::P, ratio, 11);
  const auto b = rebalanceOnDeath(q, Proc::P, ratio, 11);
  // Deterministic: same inputs, same failover partition.
  EXPECT_EQ(a.after, b.after);
  EXPECT_EQ(a.vocAfter, b.vocAfter);
}

TEST(RebalanceTest, TwoSurvivorShapeOnlyUsesTwoProcessors) {
  Rng rng(8);
  const Ratio ratio{3, 2, 1};
  const auto q = randomPartition(16, ratio, rng);
  const auto result = rebalanceOnDeath(q, Proc::R, ratio, 4);
  const int n = result.after.n();
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      EXPECT_NE(result.after.at(i, j), Proc::R) << "(" << i << "," << j << ")";
}

TEST(RebalanceTest, SurvivorsComeFasterFirstAndTiesInQEncodingOrder) {
  // The faster survivor absorbs the quota's rounding and serves the
  // simulator's operand refetch. A speed tie goes to q-encoding order: R,
  // then S, then P.
  struct Case {
    Ratio ratio;
    Proc dead;
    std::array<Proc, 2> survivors;
  };
  const Case cases[] = {
      {{5, 2, 1}, Proc::R, {Proc::P, Proc::S}},
      {{5, 2, 1}, Proc::S, {Proc::P, Proc::R}},
      {{5, 2, 1}, Proc::P, {Proc::R, Proc::S}},
      {{2, 1, 1}, Proc::R, {Proc::P, Proc::S}},
      {{2, 1, 1}, Proc::S, {Proc::P, Proc::R}},
      {{2, 1, 1}, Proc::P, {Proc::R, Proc::S}},  // R and S tie
      {{2, 2, 1}, Proc::R, {Proc::P, Proc::S}},
      {{2, 2, 1}, Proc::S, {Proc::R, Proc::P}},  // P and R tie
      {{2, 2, 1}, Proc::P, {Proc::R, Proc::S}},
  };
  for (const Case& c : cases) {
    Rng rng(10);
    const auto q = randomPartition(12, c.ratio, rng);
    const auto result = rebalanceOnDeath(q, c.dead, c.ratio, 6);
    const std::string where = c.ratio.str() + " dead " + procName(c.dead);
    EXPECT_EQ(result.survivors[0], c.survivors[0]) << where;
    EXPECT_EQ(result.survivors[1], c.survivors[1]) << where;
    EXPECT_GE(result.gained[procSlot(c.survivors[0])],
              result.gained[procSlot(c.survivors[1])])
        << where;
  }
}

TEST(RebalanceTest, InvalidArgumentsRejected) {
  Rng rng(9);
  const Ratio ratio{2, 1, 1};
  const auto q = randomPartition(10, ratio, rng);
  EXPECT_THROW(rebalanceOnDeath(q, Proc::R, ratio, -1), CheckError);
  EXPECT_THROW(rebalanceOnDeath(q, Proc::R, ratio, q.n() + 1), CheckError);
  EXPECT_THROW(rebalanceOnDeath(q, Proc::R, Ratio{1, 2, 1}, 0), CheckError);
}

}  // namespace
}  // namespace pushpart
