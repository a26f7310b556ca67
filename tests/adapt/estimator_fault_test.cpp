// Satellite of DESIGN.md §16: a ClusterFaultInjector throttle window crossed
// with the estimator's EWMA decay. A 2x SlowNode window on node R must push
// the drift verdict stale within a few phases of the throttle engaging (the
// EWMA needs time to believe the slowdown), and the verdict must relax back
// to fresh within a bounded number of phases of the window closing — without
// any replan, purely because the estimate decays home and the frozen plan
// becomes near-optimal again.
#include <gtest/gtest.h>

#include "adapt/drift.hpp"
#include "adapt/estimator.hpp"
#include "model/optimal.hpp"
#include "sim/fault.hpp"
#include "support/deadline.hpp"

namespace pushpart {
namespace {

constexpr double kWindowBegin = 10.0;
constexpr double kWindowEnd = 30.0;
constexpr int kPhases = 60;
// EWMA decay bounds: alpha = 0.3 shrinks the estimate's distance to the new
// truth by 0.7 per phase, so a 2x step is believed (or forgotten) within a
// handful of phases. The bounds leave slack for count rounding.
constexpr int kStaleWithinPhases = 6;
constexpr int kFreshWithinPhases = 12;

TEST(EstimatorFaultTest, ThrottleWindowCrossesThresholdAndRecovers) {
  ClusterFaultPlan plan;
  plan.slowNodes.push_back(SlowNode{/*node=*/0, kWindowBegin, kWindowEnd,
                                    /*factor=*/2.0});
  const ClusterFaultInjector injector(plan, kNumProcs);

  // Absolute node speeds in procSlot order (R, S, P): canonical 5.33:2:1.
  const std::array<double, kNumProcs> baseSpeed = {3.0, 1.5, 8.0};
  const Ratio plannedRatio{baseSpeed[procSlot(Proc::P)] / 1.5,
                           baseSpeed[procSlot(Proc::R)] / 1.5, 1.0};

  DriftOptions driftOptions;
  driftOptions.n = 96;
  driftOptions.staleGapPct = 5.0;
  DriftMonitor monitor(driftOptions);
  Machine machine = driftOptions.machine;
  machine.ratio = plannedRatio;
  const RankedCandidate best =
      selectOptimal(driftOptions.algo, driftOptions.n, machine,
                    driftOptions.topology, driftOptions.star);
  monitor.adopt(best.shape, plannedRatio);

  RatioEstimator estimator;
  FakeClock clock;
  int firstStalePhase = -1;
  int freshAgainPhase = -1;
  bool staleAfterRecovery = false;

  for (int phase = 0; phase < kPhases; ++phase) {
    clock.advance(1.0);
    const double now = clock.nowSeconds();
    PhaseSample sample;
    sample.at = now;
    for (Proc x : kAllProcs) {
      const double speed =
          baseSpeed[procSlot(x)] / injector.slowFactorAt(procIndex(x), now);
      sample.node(x).proc = x;
      sample.node(x).units = static_cast<std::int64_t>(speed * 1e6);
      sample.node(x).busySeconds = 1.0;
    }
    estimator.observe(sample);

    const RatioEstimate estimate = estimator.estimate();
    ASSERT_TRUE(estimate.warmedUp);
    // The throttle never reorders the nodes (R at 1.5 ties S, and the
    // procIndex tie-break keeps R ahead), so the canonical components are
    // the logical role speeds and the one-argument overload applies.
    ASSERT_EQ(estimate.order[0], Proc::P);
    const DriftVerdict verdict = monitor.evaluate(estimate.canonical());

    if (now < kWindowBegin) {
      EXPECT_FALSE(verdict.stale) << "phase " << phase << " before window";
    } else if (verdict.stale && firstStalePhase < 0) {
      firstStalePhase = phase;
    } else if (!verdict.stale && firstStalePhase >= 0 &&
               now > kWindowEnd && freshAgainPhase < 0) {
      freshAgainPhase = phase;
    } else if (verdict.stale && freshAgainPhase >= 0) {
      staleAfterRecovery = true;
    }
  }

  // Stale within the decay bound of the throttle engaging...
  ASSERT_GE(firstStalePhase, 0) << "the 2x window never read as stale";
  EXPECT_LE(firstStalePhase,
            static_cast<int>(kWindowBegin) + kStaleWithinPhases);
  // ...and fresh again within the decay bound of it releasing, for good.
  ASSERT_GE(freshAgainPhase, 0) << "never recovered after the window";
  EXPECT_LE(freshAgainPhase,
            static_cast<int>(kWindowEnd) + kFreshWithinPhases);
  EXPECT_FALSE(staleAfterRecovery);

  // A throttle is slow progress, not absent progress: no demotions fired.
  EXPECT_EQ(estimator.counters().stallDemotions, 0u);
  EXPECT_EQ(estimator.counters().deathDemotions, 0u);
}

}  // namespace
}  // namespace pushpart
