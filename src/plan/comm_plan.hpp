// Executable communication schedules for partitioned kij MMM.
//
// The models and simulator reason about communication *volumes*; a real
// implementation (the paper's testbed used Open-MPI) needs the actual
// schedule: which element goes from whom to whom at which pivot step. This
// module derives that schedule from a partition under the kij semantics of
// §II — the owner of C(i,j) needs A(i,k) for every pivot k (delivered by the
// owner of cell (i,k)) and B(k,j) (owner of (k,j)) — and proves it sound.
//
// A pivot's transfers are listed as blocks, the contiguous messages a
// SUMMA-style code sends: a run of consecutive elements of the pivot column
// of A (or the pivot row of B) that one sender owns and one receiver needs.
// Consecutive lines with the same sender and receiver share one block, so a
// pivot of a rectangle-based shape lists a handful of blocks where it moves
// Σ_i (c_i − 1) + Σ_j (c_j − 1) elements. Every count a caller reads
// (size(), planVolumes) is still in elements.
//
// The simulator's PIO sends this schedule: the volumes of each block of
// pivot entries, and after a processor death the failover epoch's entries
// (plan/rebalance.hpp), so what it times is what the verifier proved.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "grid/metrics.hpp"
#include "grid/partition.hpp"

namespace pushpart {

/// `count` consecutive elements crossing from one processor to another. A
/// block of a pivot's A column starts at (i, j) and runs down the column,
/// over rows i .. i + count − 1; a block of its B row runs along the row,
/// over columns j .. j + count − 1. `from` owns every element of the block
/// and `to` needs every one.
struct BlockTransfer {
  int i = 0;          ///< Matrix row of the first element.
  int j = 0;          ///< Matrix column of the first element.
  Proc from = Proc::P;
  Proc to = Proc::P;
  int count = 1;      ///< Elements in the block, at least 1.

  friend bool operator==(const BlockTransfer&, const BlockTransfer&) = default;
};

/// All transfers needed before pivot step k can execute everywhere.
/// buildElementPlan lists each list's blocks by first line, then by
/// receiver (R, S, P), and no two blocks of one list with the same sender
/// and receiver touch.
struct PivotTransfers {
  int pivot = 0;
  /// A(i, pivot) deliveries — the pivot column of A.
  std::vector<BlockTransfer> aColumn;
  /// B(pivot, j) deliveries — the pivot row of B.
  std::vector<BlockTransfer> bRow;

  /// Elements moved at this pivot: the blocks' counts summed.
  std::size_t size() const;

  /// aColumn (bRow) split into one-element blocks, ordered by line and then
  /// by receiver (R, S, P).
  std::vector<BlockTransfer> aElements() const;
  std::vector<BlockTransfer> bElements() const;
};

/// The full schedule: one entry per pivot, in pivot order. Interleaving
/// algorithms (PIO) send entry k while computing step k−1; the bulk
/// algorithms (SCB/PCB/SCO/PCO) concatenate all entries up front.
/// O(N²) time for one pass that finds the runs of identical rows and of
/// identical columns, then O(N·(R + C)) for R row runs and C column runs:
/// each pivot line is walked one run at a time.
std::vector<PivotTransfers> buildElementPlan(const Partition& q);

/// Schedule for the pivot suffix [firstPivot, N) only — the *failover
/// epoch* after a mid-run repartition (plan/rebalance.hpp): the surviving
/// processors replay exactly the remaining pivots under the new ownership.
/// firstPivot == 0 reproduces buildElementPlan; firstPivot == N is an empty
/// (trivially complete) plan.
std::vector<PivotTransfers> buildElementPlanRange(const Partition& q,
                                                  int firstPivot);

/// Aggregated directed volumes of a plan's entries in elements, indexed
/// [from][to]: the whole plan, or the pivots of one PIO block.
std::array<std::array<std::int64_t, kNumProcs>, kNumProcs> planVolumes(
    std::span<const PivotTransfers> entries);

/// Soundness check: every remote operand of every (owned C element, pivot)
/// pair is delivered exactly once, nothing superfluous is sent, and no
/// processor is sent data it owns. For every element of every block it
/// checks that
///   * the block lies on its pivot line, holds at least one element and
///     ends inside the grid, and sender and receiver are R, S or P;
///   * the sender owns the cell, and the receiver, another processor, owns
///     a cell of the element's row (A) or column (B), so it needs it;
///   * no (kind, line, receiver) slot is delivered twice at one pivot;
/// and that the directed volumes equal a recount from the cells, which at
/// the full range also equals pairVolumes(q). The checks read the cells
/// themselves, not the builder's walk: one pass finds the runs of identical
/// rows and columns, and a check made on one line of a run holds for every
/// line of it. O(N² + N·R + R·C + B·(log B + L)) time for B blocks that
/// span L runs each, and O(N) extra memory — no element is listed.
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
