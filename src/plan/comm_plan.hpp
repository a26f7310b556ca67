// Executable communication schedules for partitioned kij MMM.
//
// The models and simulator reason about communication *volumes*; a real
// implementation (the paper's testbed used Open-MPI) needs the actual
// schedule: which element goes from whom to whom at which pivot step. This
// module derives that schedule from a partition under the kij semantics of
// §II — the owner of C(i,j) needs A(i,k) for every pivot k (delivered by the
// owner of cell (i,k)) and B(k,j) (owner of (k,j)) — and proves it sound:
// verifyElementPlan checks every remote operand of every (element, pivot)
// pair is delivered exactly once, and the aggregate volumes equal the Eq. 1
// Volume of Communication.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "grid/metrics.hpp"
#include "grid/partition.hpp"

namespace pushpart {

/// One element crossing processor boundaries.
struct ElementTransfer {
  int i = 0;          ///< Matrix row of the element.
  int j = 0;          ///< Matrix column of the element.
  Proc from = Proc::P;
  Proc to = Proc::P;

  friend bool operator==(const ElementTransfer&,
                         const ElementTransfer&) = default;
};

/// All transfers needed before pivot step k can execute everywhere.
struct PivotTransfers {
  int pivot = 0;
  /// A(i, pivot) deliveries — the pivot column of A.
  std::vector<ElementTransfer> aColumn;
  /// B(pivot, j) deliveries — the pivot row of B.
  std::vector<ElementTransfer> bRow;

  std::size_t size() const { return aColumn.size() + bRow.size(); }
};

/// The full element-level schedule: one entry per pivot, in pivot order.
/// Interleaving algorithms (PIO) send entry k while computing step k−1; the
/// bulk algorithms (SCB/PCB/SCO/PCO) concatenate all entries up front.
std::vector<PivotTransfers> buildElementPlan(const Partition& q);

/// Schedule for the pivot suffix [firstPivot, N) only — the *failover
/// epoch* after a mid-run repartition (plan/rebalance.hpp): the surviving
/// processors replay exactly the remaining pivots under the new ownership.
/// firstPivot == 0 reproduces buildElementPlan; firstPivot == N is an empty
/// (trivially complete) plan.
std::vector<PivotTransfers> buildElementPlanRange(const Partition& q,
                                                  int firstPivot);

/// Aggregated directed volumes of a plan, indexed [from][to].
std::array<std::array<std::int64_t, kNumProcs>, kNumProcs> planVolumes(
    const std::vector<PivotTransfers>& plan);

/// Soundness check: every remote operand of every (owned C element, pivot)
/// pair is delivered exactly once, nothing superfluous is sent, and no
/// processor is sent data it owns. Returns true when the plan is exact, and
/// false for any transfer whose coordinates leave the grid or whose sender
/// or receiver is not R, S or P. O(N²·procs + T) time for T transfers and
/// O(N·procs) extra memory (per-line occupancy and one delivery stamp per
/// line and receiver), not O(N³).
bool verifyElementPlan(const Partition& q,
                       const std::vector<PivotTransfers>& plan);

/// Range-restricted soundness check for a failover epoch: the plan must
/// cover the pivots [firstPivot, N) of `q` exactly — same validity,
/// uniqueness and completeness rules as verifyElementPlan, with expected
/// volumes recounted over the suffix only. firstPivot == 0 is equivalent to
/// verifyElementPlan.
bool verifyElementPlanRange(const Partition& q,
                            const std::vector<PivotTransfers>& plan,
                            int firstPivot);

}  // namespace pushpart
