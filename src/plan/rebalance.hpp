// Degrade-to-survivors repartitioning after a processor death.
//
// When a processor dies mid-run, its elements — and the C partials it had
// accumulated — are gone; the two survivors must finish the multiplication
// alone. This module computes the *failover partition*: the dead
// processor's cells are reassigned to the survivors in proportion to their
// relative speeds, then the shape is condensed with the paper's Push
// machinery (strictly VoC-decreasing pushes only, so the sweep terminates)
// to find a low-VoC two-processor completion shape. The accompanying delta
// communication schedule covers exactly the remaining pivots
// [fromPivot, N) of the new partition and is checked sound with
// verifyElementPlanRange.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "grid/partition.hpp"
#include "grid/ratio.hpp"
#include "plan/comm_plan.hpp"

namespace pushpart {

/// Outcome of a degrade-to-survivors repartition.
struct RebalanceResult {
  Partition after;  ///< Failover partition; `dead` owns nothing in it.
  Proc dead = Proc::P;
  /// The two survivors, faster first; q-encoding order (R, S, P) breaks a
  /// speed tie. The faster one absorbs the quota's rounding and serves the
  /// operand refetch on failover (sim/mmm_sim.hpp).
  std::array<Proc, 2> survivors{};
  int fromPivot = 0;  ///< First pivot of the failover epoch.
  /// Cells each survivor gained from the dead processor (0 for `dead`).
  std::array<std::int64_t, kNumProcs> gained{};
  std::int64_t reassigned = 0;  ///< Total cells moved off the dead processor.
  std::int64_t vocBefore = 0;   ///< VoC of the original three-proc partition.
  std::int64_t vocAfter = 0;    ///< VoC of `after` (two survivors).
  /// Element schedule for pivots [fromPivot, N) under `after`.
  std::vector<PivotTransfers> deltaPlan;
  /// verifyElementPlanRange(after, deltaPlan, fromPivot) — always checked.
  bool deltaPlanVerified = false;

  RebalanceResult() : after(1) {}
};

/// Reassigns every cell of `dead` to the two survivors, splitting the count
/// in proportion to their `ratio` speeds (the faster survivor absorbs
/// rounding). Two quota-respecting candidates are built — a row-major banded
/// split and a greedy per-cell minimum-VoC assignment — each condensed by
/// Push sweeps over the surviving slow processors with allowEqualVoC=false,
/// and the lower-VoC result wins. `fromPivot` ∈ [0, N] selects the failover
/// epoch for the emitted delta schedule. Throws CheckError on an invalid
/// ratio or fromPivot.
RebalanceResult rebalanceOnDeath(const Partition& q, Proc dead,
                                 const Ratio& ratio, int fromPivot);

}  // namespace pushpart
