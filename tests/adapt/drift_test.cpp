#include "adapt/drift.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>

#include "model/optimal.hpp"
#include "../support/algo_print.hpp"

namespace pushpart {
namespace {

DriftOptions optionsWithGap(double gapPct) {
  DriftOptions options;
  options.n = 96;
  options.staleGapPct = gapPct;
  return options;
}

/// Adopts the genuinely optimal plan at `ratio` so re-cost gaps measure
/// drift, not a bad starting plan. Returns the adopted shape.
CandidateShape adoptOptimalAt(DriftMonitor& monitor, const Ratio& ratio) {
  Machine machine = monitor.options().machine;
  machine.ratio = ratio;
  const RankedCandidate best =
      selectOptimal(monitor.options().algo, monitor.options().n, machine,
                    monitor.options().topology, monitor.options().star);
  monitor.adopt(best.shape, ratio);
  return best.shape;
}

/// Any shape that is not `taken` — for planting a foreign-winner cell.
CandidateShape someOtherShape(CandidateShape taken) {
  return taken == CandidateShape::kSquareRectangle
             ? CandidateShape::kBlockRectangle
             : CandidateShape::kSquareRectangle;
}

TEST(DriftOptionsTest, ValidateRejectsDegenerateKnobs) {
  DriftOptions bad;
  bad.n = 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = DriftOptions{};
  bad.staleGapPct = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(DriftMonitorTest, FreshWithNoPlanAdopted) {
  const DriftMonitor monitor(optionsWithGap(5.0));
  const DriftVerdict verdict = monitor.evaluate(Ratio{5, 2, 1});
  EXPECT_FALSE(verdict.stale);
  EXPECT_EQ(verdict.reason, DriftReason::kNoPlan);
}

// --- Every algorithm: the re-cost is the session's own model ---------------

DriftOptions optionsFor(Algo algo) {
  DriftOptions options = optionsWithGap(5.0);
  options.algo = algo;
  return options;
}

class DriftMonitorAlgoTest : public ::testing::TestWithParam<Algo> {};

TEST_P(DriftMonitorAlgoTest, FreshAtThePlannedRatio) {
  DriftMonitor monitor(optionsFor(GetParam()));
  adoptOptimalAt(monitor, Ratio{5, 2, 1});
  const DriftVerdict verdict = monitor.evaluate(Ratio{5, 2, 1});
  EXPECT_FALSE(verdict.stale);
  EXPECT_EQ(verdict.reason, DriftReason::kRecostOk);
  // The frozen plan and the best plan are one plan priced by one model.
  EXPECT_EQ(verdict.gapPct, 0.0);
}

TEST_P(DriftMonitorAlgoTest, RecostGapFlagsShareDriftWithoutAnAtlas) {
  DriftMonitor monitor(optionsFor(GetParam()));
  adoptOptimalAt(monitor, Ratio{2, 1, 1});
  // The platform now runs at 10:3:1 — the frozen 2:1:1 shares starve P.
  const DriftVerdict verdict = monitor.evaluate(Ratio{10, 3, 1});
  EXPECT_TRUE(verdict.stale);
  EXPECT_EQ(verdict.reason, DriftReason::kRecostGap);
  EXPECT_GT(verdict.gapPct, 5.0);
}

TEST_P(DriftMonitorAlgoTest, LogicalSpeedsOverrideTheCanonicalComponents) {
  DriftMonitor monitor(optionsFor(GetParam()));
  adoptOptimalAt(monitor, Ratio{5, 2, 1});
  // Same canonical estimate, but the node playing P has actually slowed to
  // the middle speed (a relabel the fastest-first sort hides): the frozen
  // plan must be costed at the role's real speed and go stale.
  const DriftVerdict relabeled =
      monitor.evaluate(Ratio{5, 2, 1}, {/*R=*/5.0, /*S=*/1.0, /*P=*/2.0});
  EXPECT_TRUE(relabeled.stale);
  EXPECT_GT(relabeled.gapPct, 5.0);
  // Matching logical speeds stay fresh.
  const DriftVerdict aligned =
      monitor.evaluate(Ratio{5, 2, 1}, {/*R=*/2.0, /*S=*/1.0, /*P=*/5.0});
  EXPECT_FALSE(aligned.stale);
  EXPECT_EQ(aligned.gapPct, 0.0);
}

INSTANTIATE_TEST_SUITE_P(EveryAlgo, DriftMonitorAlgoTest,
                         ::testing::ValuesIn(kAllAlgos),
                         ::testing::PrintToStringParamName());

TEST(DriftMonitorTest, ScbGapsAreUnchangedBitForBit) {
  // SCB re-cost gaps at n = 96, recorded as hexfloats from the closed form
  // the monitor used before it priced plans through evalModel. Four cases
  // put the P role below another role, so the owner relabel runs.
  struct Case {
    Ratio planned;
    Ratio estimate;
    std::array<double, kNumProcs> logical;  // R, S, P
    double gapPct;
  };
  const Case cases[] = {
      {{5, 2, 1}, {5, 2, 1}, {2, 1, 5}, 0x0p+0},
      {{2, 1, 1}, {10, 3, 1}, {3, 1, 10}, 0x1.b193146052fcap+6},
      {{5, 2, 1}, {5, 2, 1}, {5, 1, 2}, 0x1.390b21642c858p+6},
      {{3, 1, 1}, {4, 2, 1}, {4, 2, 1}, 0x1.58f8c0e3ac344p+7},
      {{7, 3, 1}, {6, 2.5, 1}, {2.5, 1, 6}, 0x1.5436f45bded6p+0},
      {{10, 1, 1}, {8, 1.5, 1}, {1.5, 1, 8}, 0x1.18d7a8c3f7348p-1},
      {{4, 4, 1}, {4.2, 3.9, 1}, {3.9, 1, 4.2}, 0x1.3496303760e36p+1},
      {{5, 2, 1}, {5.5, 2.2, 1}, {1, 2.2, 5.5}, 0x1.d1dc9f230cb0ep+5},
      {{2, 2, 1}, {3, 2, 1}, {3, 1, 2}, 0x1.d6d555555554dp+3},
      {{1, 1, 1}, {1.3, 1.1, 1}, {1.1, 1.3, 1}, 0x1.3615f02319d1fp+3},
  };
  for (const Case& c : cases) {
    DriftMonitor monitor(optionsWithGap(5.0));
    adoptOptimalAt(monitor, c.planned);
    EXPECT_EQ(monitor.evaluate(c.estimate, c.logical).gapPct, c.gapPct)
        << c.planned.str() << " at " << c.estimate.str();
  }
}

TEST(DriftMonitorTest, NonPositiveLogicalSpeedIsInfinitelyStale) {
  DriftMonitor monitor(optionsWithGap(5.0));
  adoptOptimalAt(monitor, Ratio{5, 2, 1});
  const DriftVerdict verdict =
      monitor.evaluate(Ratio{5, 2, 1}, {0.0, 1.0, 5.0});
  EXPECT_TRUE(verdict.stale);
  EXPECT_EQ(verdict.reason, DriftReason::kRecostGap);
}

// --- Atlas-backed paths ----------------------------------------------------

std::shared_ptr<PlanAtlas> emptyAtlas() {
  AtlasGridSpec spec;
  spec.prMin = 1.0;
  spec.prMax = 13.0;
  spec.prSteps = 7;  // P_r step 2: cells at 1, 3, 5, ...
  spec.rrMin = 1.0;
  spec.rrMax = 7.0;
  spec.rrSteps = 7;  // R_r step 1
  return std::make_shared<PlanAtlas>(spec, AtlasBuildInfo{});
}

AtlasCell solvedCell(CandidateShape shape, double runnerUpGapPct) {
  AtlasCell cell;
  cell.solved = true;
  cell.shape = shape;
  cell.execSeconds = 1.0;
  cell.runnerUpGapPct = runnerUpGapPct;
  return cell;
}

TEST(DriftMonitorTest, SameAtlasCellIsFreshWithoutARecost) {
  auto atlas = emptyAtlas();
  DriftOptions options = optionsWithGap(5.0);
  options.atlas = atlas;
  DriftMonitor monitor(options);
  adoptOptimalAt(monitor, Ratio{5, 2, 1});

  // A small wiggle that stays inside the plan's own cell (steps are 2 x 1,
  // so +-0.4 rounds back to the same grid point) short-circuits fresh.
  const DriftVerdict verdict = monitor.evaluate(Ratio{5.4, 2.2, 1});
  EXPECT_FALSE(verdict.stale);
  EXPECT_EQ(verdict.reason, DriftReason::kSameCell);
  EXPECT_FALSE(verdict.cellChanged);
  EXPECT_EQ(verdict.gapPct, 0.0);
}

TEST(DriftMonitorTest, DecisiveForeignCellCertifiesStaleness) {
  auto atlas = emptyAtlas();
  DriftOptions options = optionsWithGap(5.0);
  options.atlas = atlas;
  DriftMonitor monitor(options);
  const CandidateShape adopted = adoptOptimalAt(monitor, Ratio{2, 1, 1});

  // Install the cell the drifted estimate will land in: solved, lone (so
  // off-boundary), a different winner, and a decisive runner-up gap.
  int i = -1, j = -1;
  ASSERT_TRUE(atlas->assign(Ratio{11, 4, 1}, i, j));
  atlas->insert(i, j, solvedCell(someOtherShape(adopted), 40.0));

  const DriftVerdict verdict = monitor.evaluate(Ratio{11, 4, 1});
  EXPECT_TRUE(verdict.stale);
  EXPECT_EQ(verdict.reason, DriftReason::kCellCertificate);
  EXPECT_TRUE(verdict.cellChanged);
  EXPECT_EQ(verdict.cellI, i);
  EXPECT_EQ(verdict.cellJ, j);
}

TEST(DriftMonitorTest, TimidForeignCellFallsBackToTheRecostGap) {
  auto atlas = emptyAtlas();
  DriftOptions options = optionsWithGap(5.0);
  options.atlas = atlas;
  DriftMonitor monitor(options);
  const CandidateShape adopted = adoptOptimalAt(monitor, Ratio{5, 2, 1});

  // The neighbouring cell's winner differs but its runner-up gap sits below
  // the threshold — a boundary-hugging hop the certificate must not trip
  // on. The re-cost gap then decides (and a 2-step nudge in P_r is cheap,
  // so the verdict is fresh).
  int i = -1, j = -1;
  ASSERT_TRUE(atlas->assign(Ratio{7, 2, 1}, i, j));
  atlas->insert(i, j, solvedCell(someOtherShape(adopted), 1.0));

  const DriftVerdict verdict = monitor.evaluate(Ratio{7, 2, 1});
  EXPECT_EQ(verdict.reason,
            verdict.stale ? DriftReason::kRecostGap : DriftReason::kRecostOk);
  EXPECT_TRUE(verdict.cellChanged);
}

TEST(DriftMonitorTest, OutOfRangeEstimateFallsBackToTheRecostGap) {
  auto atlas = emptyAtlas();
  DriftOptions options = optionsWithGap(5.0);
  options.atlas = atlas;
  DriftMonitor monitor(options);
  adoptOptimalAt(monitor, Ratio{2, 1, 1});

  // 50:20:1 lies beyond the grid span: no cell, straight to the re-cost.
  const DriftVerdict verdict = monitor.evaluate(Ratio{50, 20, 1});
  EXPECT_TRUE(verdict.stale);
  EXPECT_EQ(verdict.reason, DriftReason::kRecostGap);
  EXPECT_EQ(verdict.cellI, -1);
}

}  // namespace
}  // namespace pushpart
