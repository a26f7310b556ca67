// Staleness detection: has the observed ratio left the served plan's
// optimality region?
//
// A plan is solved for one ratio; its element shares and its winning shape
// are both functions of that ratio. The DriftMonitor (DESIGN.md §16) judges
// whether the plan the session is still executing remains close enough to
// optimal at the ratio the RatioEstimator currently believes, in three
// escalating steps:
//
//   1. Atlas same-cell fast path (O(1)). Map the estimate onto the plan
//      atlas grid (src/atlas). Landing in the very cell the plan was solved
//      for bounds the share drift by half a grid step — fresh, no re-cost.
//   2. Atlas cell certificate. The estimate landed in a *different* cell
//      that is solved, off-boundary, and whose (snapped) winner differs
//      from the served shape, with a runner-up gap above the staleness
//      threshold: the ratio has decisively crossed into another shape's
//      region — stale, certified by the precomputed surface alone. Cells
//      near a crossover front carry small runner-up gaps, so a
//      boundary-hugging ratio can hop cells all day without tripping this
//      (that, plus the session's hysteresis, is the anti-thrash story).
//   3. Re-cost gap (the fallback, and the only step when no atlas is
//      loaded). Price the *frozen* plan — the served shape's candidateLines
//      at the ratio it was solved for — at the estimated speeds, against
//      the best achievable plan at the estimate (model/optimal.hpp). Stale
//      when the gap exceeds staleGapPct. This is the predicate that catches
//      same-winner share drift: the shape may still win, but the shares are
//      wrong.
//
// Both sides are evalModel (model/models.hpp) under the session's
// algorithm, topology and star hub, so the gap compares like against like
// and reads exactly 0 at the planned ratio. evalModel needs P to be the
// fastest, so the frozen plan's owners and the hub are first relabeled by
// each role's current speed rank (ties keep P first).
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "atlas/atlas.hpp"
#include "grid/ratio.hpp"
#include "model/machine.hpp"
#include "model/optimal.hpp"
#include "shapes/candidates.hpp"

namespace pushpart {

struct DriftOptions {
  /// Re-cost granularity, the session's model (algo, topology, star) and
  /// machine constants (machine.ratio is ignored — the estimate supplies
  /// per-evaluation speeds).
  int n = 96;
  Algo algo = Algo::kSCB;
  Topology topology = Topology::kFullyConnected;
  StarConfig star{};
  Machine machine{};
  /// Staleness threshold, percent: the frozen plan must model this much
  /// worse than the best plan at the estimated ratio (step 3), or the new
  /// cell's runner-up gap must exceed it (step 2).
  double staleGapPct = 5.0;
  /// Optimality-region source. Null = re-cost gap only.
  std::shared_ptr<const PlanAtlas> atlas;

  /// Throws std::invalid_argument on a degenerate n or threshold.
  void validate() const;
};

/// Why the monitor ruled the way it did. kWarmup is recorded by the
/// AdaptiveSession (the monitor is never consulted before the estimator has
/// a sample from every node).
enum class DriftReason {
  kNoPlan = 0,       ///< Fresh: nothing adopted yet.
  kWarmup,           ///< Fresh: estimator not warmed up yet.
  kSameCell,         ///< Fresh: estimate in the plan's own atlas cell.
  kCellCertificate,  ///< Stale: decisively inside another winner's cell.
  kRecostGap,        ///< Stale: frozen-plan re-cost gap above threshold.
  kRecostOk,         ///< Fresh: re-cost gap within threshold.
};

constexpr const char* driftReasonName(DriftReason r) {
  switch (r) {
    case DriftReason::kNoPlan: return "no-plan";
    case DriftReason::kWarmup: return "warmup";
    case DriftReason::kSameCell: return "same-cell";
    case DriftReason::kCellCertificate: return "cell-certificate";
    case DriftReason::kRecostGap: return "recost-gap";
    case DriftReason::kRecostOk: return "recost-ok";
  }
  return "?";
}

struct DriftVerdict {
  bool stale = false;
  DriftReason reason = DriftReason::kNoPlan;
  /// Frozen-plan re-cost gap vs the best plan at the estimate, percent
  /// (computed on steps 2–3; 0 on the same-cell fast path).
  double gapPct = 0.0;
  /// Atlas cell the estimate mapped to (-1 when no atlas or out of range).
  int cellI = -1;
  int cellJ = -1;
  bool cellChanged = false;  ///< Estimate left the plan's cell.
  /// Best shape at the estimated ratio (steps 2–3; the served shape on the
  /// fast path).
  CandidateShape bestShape = CandidateShape::kSquareCorner;
};

class DriftMonitor {
 public:
  explicit DriftMonitor(DriftOptions options);

  /// Records the plan the session just started executing: its canonical
  /// shape and the canonical ratio it was solved for. The frozen plan is
  /// candidateLines(shape, n, plannedRatio).
  void adopt(CandidateShape shape, const Ratio& plannedRatio);

  /// Judges the adopted plan at the estimated speeds. `canonicalEstimate`
  /// is the estimator's sorted ratio (P_r >= R_r >= S_r = 1);
  /// `logicalSpeed` gives, per logical role (procSlot order R, S, P), the
  /// estimated speed of the node *currently assigned* that role, on the
  /// same scale as the canonical estimate — it differs from the canonical
  /// components exactly when the fastest-first order has drifted away from
  /// the assignment frozen into the plan.
  DriftVerdict evaluate(const Ratio& canonicalEstimate,
                        const std::array<double, kNumProcs>& logicalSpeed) const;

  /// Convenience overload for the common no-relabel case: the logical
  /// speeds are the canonical components themselves.
  DriftVerdict evaluate(const Ratio& canonicalEstimate) const;

  const DriftOptions& options() const { return options_; }

 private:
  /// The frozen plan's modeled time with each role at its logical speed;
  /// infinite when a speed is not positive.
  double frozenCost(const std::array<double, kNumProcs>& logicalSpeed) const;

  DriftOptions options_;
  CandidateShape shape_ = CandidateShape::kSquareCorner;
  std::optional<LineCounts> frozen_;  ///< Empty until a plan is adopted.
  int plannedI_ = -1;  ///< Atlas cell the plan's ratio maps to (-1 none).
  int plannedJ_ = -1;
};

}  // namespace pushpart
