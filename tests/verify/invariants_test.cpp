#include "verify/invariants.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "adapt/estimator.hpp"
#include "dfa/schedule.hpp"
#include "grid/builder.hpp"
#include "shapes/candidates.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

TEST(CheckReportTest, EmptyIsOkAndMergeAccumulates) {
  CheckReport a;
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.str(), "ok");
  a.add("x.first", "one");
  CheckReport b;
  b.add("x.second", "two");
  a.merge(b);
  EXPECT_FALSE(a.ok());
  ASSERT_EQ(a.violations.size(), 2u);
  EXPECT_EQ(a.violations[1].property, "x.second");
  EXPECT_NE(a.str().find("x.first: one"), std::string::npos);
}

TEST(InferRatioTest, RecoversElementCountsOfGeneratingRatio) {
  Rng rng(7);
  for (const Ratio& ratio : {Ratio{2, 1, 1}, Ratio{5, 2, 1},
                             Ratio{10, 3, 1}}) {
    const Partition q = randomPartition(12, ratio, rng);
    const Ratio inferred = inferRatio(q);
    // The inferred ratio need not equal the original numerically, but must
    // reproduce the same element counts — that is what replay cares about.
    EXPECT_EQ(inferred.elementCounts(12), ratio.elementCounts(12))
        << ratio.str() << " vs inferred " << inferred.str();
  }
}

TEST(InferRatioTest, ThrowsWhenASlowProcessorOwnsNothing) {
  const Partition q(6);  // all P
  EXPECT_THROW(inferRatio(q), std::invalid_argument);
}

TEST(RatioIntervalTest, BracketsGeneratingRatioAndPointEstimate) {
  Rng rng(11);
  for (const Ratio& ratio : {Ratio{2, 1, 1}, Ratio{5, 2, 1},
                             Ratio{10, 3, 1}, Ratio{25, 5, 1}}) {
    for (int n : {12, 24, 60}) {
      const Partition q = randomPartition(n, ratio, rng);
      const RatioInterval interval = inferRatioInterval(q);
      // The true generating ratio and the point estimate both lie inside
      // the quantization bounds, and the bounds are ordered.
      EXPECT_TRUE(interval.contains(ratio))
          << ratio.str() << " at n=" << n << " outside ["
          << interval.lo.str() << ", " << interval.hi.str() << "]";
      EXPECT_TRUE(interval.contains(interval.mid));
      EXPECT_LE(interval.lo.p, interval.hi.p);
      EXPECT_LE(interval.lo.r, interval.hi.r);
    }
  }
}

TEST(RatioIntervalTest, ExcludesDecisivelyDifferentRatios) {
  Rng rng(12);
  const Partition q = randomPartition(24, Ratio{5, 2, 1}, rng);
  const RatioInterval interval = inferRatioInterval(q);
  EXPECT_FALSE(interval.contains(Ratio{2, 1, 1}));
  EXPECT_FALSE(interval.contains(Ratio{10, 3, 1}));
  // Scale invariance: containment is judged on the normalized candidate.
  EXPECT_TRUE(interval.contains(Ratio{10, 4, 2}));
}

// Cross-check with the adaptive loop's estimator: telemetry generated at the
// partition's own ratio must yield a canonical estimate inside the interval
// the partition's counts pin down.
TEST(RatioIntervalTest, ContainsRatioEstimatorCanonicalEstimate) {
  const Ratio truth{5, 2, 1};
  RatioEstimator estimator;
  for (int phase = 0; phase < 8; ++phase) {
    PhaseSample sample;
    sample.at = phase;
    for (Proc x : kAllProcs) {
      sample.node(x).proc = x;
      sample.node(x).units = static_cast<std::int64_t>(truth.speed(x) * 1e6);
      sample.node(x).busySeconds = 1.0;
    }
    estimator.observe(sample);
  }
  const RatioEstimate estimate = estimator.estimate();
  ASSERT_TRUE(estimate.warmedUp);
  Rng rng(14);
  const Partition q = randomPartition(36, truth, rng);
  EXPECT_TRUE(inferRatioInterval(q).contains(estimate.canonical()));
}

TEST(CheckCountersTest, PassesOnFreshRandomPartition) {
  Rng rng(3);
  const Partition q = randomPartition(10, Ratio{3, 2, 1}, rng);
  EXPECT_TRUE(checkCounters(q).ok());
}

TEST(CheckConservationTest, FlagsChangedCounts) {
  Rng rng(3);
  const Partition before = randomPartition(8, Ratio{2, 1, 1}, rng);
  Partition after = before;
  // Reassign one R cell to P: counts diverge.
  for (int i = 0; i < 8 && after.count(Proc::R) == before.count(Proc::R); ++i)
    for (int j = 0; j < 8; ++j)
      if (after.at(i, j) == Proc::R) {
        after.set(i, j, Proc::P);
        break;
      }
  const CheckReport report = checkConservation(before, after);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].property, "conservation.counts");
}

TEST(CheckPushOutcomeTest, AcceptsARealEnginePush) {
  Rng rng(11);
  Partition q = randomPartition(12, Ratio{3, 1, 1}, rng);
  for (int attempts = 0; attempts < 64; ++attempts) {
    const Partition before = q;
    const PushOutcome outcome =
        tryPush(q, attempts % 2 == 0 ? Proc::R : Proc::S,
                kAllDirections[static_cast<std::size_t>(attempts) %
                               kAllDirections.size()]);
    EXPECT_TRUE(checkPushOutcome(before, q, outcome).ok())
        << checkPushOutcome(before, q, outcome).str();
  }
}

TEST(CheckPushOutcomeTest, FlagsTamperedBookkeeping) {
  Rng rng(11);
  Partition q = randomPartition(12, Ratio{3, 1, 1}, rng);
  Partition before = q;
  PushOutcome outcome;
  while (!outcome.applied) {
    before = q;
    outcome = tryPush(q, Proc::R, Direction::Down);
    if (!outcome.applied) outcome = tryPush(q, Proc::S, Direction::Right);
  }
  PushOutcome tampered = outcome;
  tampered.vocAfter = outcome.vocAfter - 1;  // claims more improvement
  EXPECT_FALSE(checkPushOutcome(before, q, tampered).ok());
}

TEST(CheckPushOutcomeTest, FlagsMutationWithoutApplication) {
  Rng rng(5);
  const Partition before = randomPartition(8, Ratio{2, 1, 1}, rng);
  Partition after = before;
  after.swapCells(0, 0, 7, 7);
  PushOutcome outcome;  // applied = false, yet the grid changed
  EXPECT_FALSE(checkPushOutcome(before, after, outcome).ok());
}

TEST(CheckDfaRunTest, AcceptsACompleteCondensation) {
  Rng rng(23);
  const Partition q0 = randomPartition(16, Ratio{5, 2, 1}, rng);
  const Schedule schedule = Schedule::random(rng);
  const DfaResult result = runDfa(q0, schedule, {});
  const CheckReport report = checkDfaRun(q0, result);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(CheckSerializeRoundTripTest, PassesForArbitraryPartitions) {
  Rng rng(9);
  for (int n : {3, 7, 16}) {
    const Partition q = randomPartition(n, Ratio{2, 1, 1}, rng);
    EXPECT_TRUE(checkSerializeRoundTrip(q).ok()) << "n=" << n;
  }
}

TEST(CheckCondensedStateTest, AcceptsCanonicalCandidates) {
  const Ratio ratio{5, 2, 1};
  for (CandidateShape shape : kAllCandidates) {
    if (!candidateFeasible(shape, 20, ratio)) continue;
    const Partition q = makeCandidate(shape, 20, ratio);
    const CheckReport report = checkCondensedState(q, ratio);
    EXPECT_TRUE(report.ok()) << candidateName(shape) << ": " << report.str();
  }
}

TEST(CheckCondensedStateTest, AcceptsDfaAcceptStates) {
  Rng rng(31);
  const Ratio ratio{3, 1, 1};
  const Partition q0 = randomPartition(14, ratio, rng);
  const DfaResult result = runDfa(q0, Schedule::full(), {});
  const CheckReport report = checkCondensedState(result.final, ratio);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(CheckOracleTierAgreementTest, TiersAgreeOnTypicalRequests) {
  Oracle oracle;
  PlanRequest req;
  req.n = 48;
  req.ratio = Ratio{5, 2, 1};
  req.searchRuns = 2;
  const CheckReport report = checkOracleTierAgreement(oracle, req);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(CheckServeDegradationTest, LadderContractHoldsOnTypicalRequests) {
  OracleOptions options;
  options.breaker.failureThreshold = 0;  // the checker busts deadlines itself
  Oracle oracle(options);
  PlanRequest req;
  req.n = 32;
  req.ratio = Ratio{3, 1, 1};
  req.searchRuns = 2;
  const CheckReport report = checkServeDegradation(oracle, req);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(CheckServeDegradationTest, HoldsAcrossRatiosAndTiersRequested) {
  for (const Ratio& ratio : {Ratio{2, 1, 1}, Ratio{5, 2, 1}, Ratio{10, 3, 1}}) {
    OracleOptions options;
    options.breaker.failureThreshold = 0;
    Oracle oracle(options);
    PlanRequest req;
    req.n = 24;
    req.ratio = ratio;
    req.tier = PlanTier::kFast;  // the checker forces both tiers itself
    req.searchRuns = 3;
    const CheckReport report = checkServeDegradation(oracle, req);
    EXPECT_TRUE(report.ok()) << ratio.str() << ": " << report.str();
  }
}

TEST(CorpusFilesTest, MissingDirectoryYieldsEmptyList) {
  EXPECT_TRUE(corpusFiles("/no/such/dir").empty());
}

}  // namespace
}  // namespace pushpart
