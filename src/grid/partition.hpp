// The data-partition grid q : [0,N)² → {R, S, P} with incremental metrics.
//
// This is the central data structure of the library. It stores the paper's
// partition function q(i,j) (§IV) as a dense N×N cell grid and maintains,
// incrementally under single-cell reassignment:
//
//   * per-processor per-row / per-column element counts,
//   * per-processor totals and used-row / used-column counts (i_X, j_X of
//     Eq. 6),
//   * per-row / per-column distinct-owner counts c_i, c_j and their sums, so
//     the Volume of Communication (Eq. 1) is an O(1) query,
//   * lazily-recomputed enclosing rectangles.
//
// Builders make a partition the way the paper makes q0 (§VI-A2): all cells
// start on the fastest owner, and each slower owner takes its exact element
// count from the fastest owner's cells, through claim() wherever those
// cells form a box, in the order the builder's shape needs.
//
// The grid has an owner count: the paper's three processors by default, or
// any k ∈ [2, kMaxOwners] for the paper's §XI direction, with the owner ids
// of grid/proc.hpp (slow owners 0..k−2, the fastest k−1). The push engine
// and the DFA walk read the owners and the fastest owner from the state;
// the three-processor pipeline (models, plans, executors, the simulator,
// the serializer) refuses any other count at entry (requireThreeOwners).
//
// Every mutation is O(1); a full VoC recompute would be O(N·owners). The
// DFA search performs millions of cell moves per run, which is why the
// counters are incremental (see bench/micro_push for the measured gap).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "grid/proc.hpp"
#include "grid/rect.hpp"
#include "support/check.hpp"

namespace pushpart {

/// The order in which Partition::claim visits a box: line by line, the lines
/// being rows unless `columns`. The lines, and the cells within each line,
/// run ascending unless reversed.
struct ClaimOrder {
  bool columns = false;
  bool reverseLines = false;
  bool reverseCells = false;
};

class Partition {
 public:
  /// N×N grid over the paper's three processors with every cell assigned to
  /// `fill` (default: the fastest processor P, matching the paper's q0
  /// initialisation, §VI-A2).
  explicit Partition(int n, Proc fill = Proc::P);

  /// N×N grid over `owners` owners with every cell assigned to the fastest,
  /// owners − 1. Throws CheckError unless owners ∈ [2, kMaxOwners].
  Partition(int n, int owners);

  int n() const { return n_; }
  std::int64_t cellCount() const {
    return static_cast<std::int64_t>(n_) * n_;
  }

  /// Number of owners k; owner ids are 0..k−1.
  int owners() const { return owners_; }
  /// The fastest owner, k − 1 (P at three owners): never pushed.
  Proc fastest() const { return procFromIndex(owners_ - 1); }

  /// Owner of cell (i, j).
  Proc at(int i, int j) const { return cells_[index(i, j)]; }

  /// The owners of row i's N cells, left to right (read-only).
  const Proc* row(int i) const { return cells_.data() + index(i, 0); }

  /// Reassigns cell (i, j) to owner `p`, updating all counters.
  void set(int i, int j, Proc p);

  /// Swaps the owners of two cells (no-op if they already match).
  void swapCells(int i1, int j1, int i2, int j2);

  /// Hands `to` the cells of `box` that `from` owns, visited in `order`,
  /// and stops after `count`. Returns how many moved: fewer than `count`
  /// when the box runs out of `from`'s cells. Throws CheckError when `box`
  /// leaves the grid or an owner is out of range or `from` == `to`.
  std::int64_t claim(const Rect& box, Proc from, Proc to, std::int64_t count,
                     ClaimOrder order = {});

  // --- Occupancy queries (all O(1)) -------------------------------------

  /// # elements of processor p in row i.
  int rowCount(Proc p, int i) const {
    return rowCnt_[procSlot(p)][static_cast<std::size_t>(i)];
  }
  /// # elements of processor p in column j.
  int colCount(Proc p, int j) const {
    return colCnt_[procSlot(p)][static_cast<std::size_t>(j)];
  }
  bool rowHas(Proc p, int i) const { return rowCount(p, i) > 0; }
  bool colHas(Proc p, int j) const { return colCount(p, j) > 0; }

  /// Total elements assigned to p (∈X in the paper).
  std::int64_t count(Proc p) const { return owner_[procSlot(p)].total; }

  /// i_X — number of rows containing at least one element of p (Eq. 6).
  int rowsUsed(Proc p) const { return owner_[procSlot(p)].rowsUsed; }
  /// j_X — number of columns containing at least one element of p (Eq. 6).
  int colsUsed(Proc p) const { return owner_[procSlot(p)].colsUsed; }

  /// c_i — number of distinct processors owning elements in row i (Eq. 1).
  int procsInRow(int i) const { return ci_[static_cast<std::size_t>(i)]; }
  /// c_j — number of distinct processors owning elements in column j.
  int procsInCol(int j) const { return cj_[static_cast<std::size_t>(j)]; }

  /// Volume of Communication, Eq. 1:
  ///   VoC = Σ_i N(c_i − 1) + Σ_j N(c_j − 1).
  /// O(1): maintained from the running sums of c_i and c_j.
  std::int64_t volumeOfCommunication() const;

  /// Tightest axis-aligned rectangle around p's elements; empty when p owns
  /// nothing. O(1) when cached, O(N) to recompute after a mutation.
  const Rect& enclosingRect(Proc p) const;

  // --- Identity ----------------------------------------------------------

  /// 64-bit FNV-1a over the cell bytes; used for cycle detection in the DFA.
  std::uint64_t hash() const;

  bool operator==(const Partition& o) const {
    return n_ == o.n_ && owners_ == o.owners_ && cells_ == o.cells_;
  }

  /// Full O(N²) recomputation of every counter, for validation in tests.
  /// Throws CheckError if any incremental counter disagrees.
  void validateCounters() const;

 private:
  // The bitboard keeps its owner bits in step with these counters, so it
  // reassigns cells through reassign() and reads the line changes it reports.
  friend class BitPartition;

  Partition(int n, int owners, Proc fill);

  std::size_t index(int i, int j) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(j);
  }
  void recomputeRect(Proc p) const;

  /// The line memberships one reassignment changed: whether the old owner
  /// left the cell's row and column, and whether the new owner entered them.
  struct LineChange {
    bool leftRow = false;
    bool leftCol = false;
    bool enteredRow = false;
    bool enteredCol = false;
  };

  /// Hands cell (i, j) from its owner `old` to `p` != old and updates every
  /// counter. The callers have range-checked (i, j) and both owners.
  LineChange reassign(int i, int j, Proc old, Proc p) {
    cells_[index(i, j)] = p;
    const std::size_t oi = procSlot(old);
    const std::size_t pi = procSlot(p);
    OwnerTotals& from = owner_[oi];
    OwnerTotals& to = owner_[pi];
    const auto iz = static_cast<std::size_t>(i);
    const auto jz = static_cast<std::size_t>(j);
    LineChange change;

    // Line counters for the departing owner.
    if (--rowCnt_[oi][iz] == 0) {
      change.leftRow = true;
      --from.rowsUsed;
      --ci_[iz];
      --ciSum_;
    }
    if (--colCnt_[oi][jz] == 0) {
      change.leftCol = true;
      --from.colsUsed;
      --cj_[jz];
      --cjSum_;
    }
    --from.total;

    // Line counters for the arriving owner.
    if (rowCnt_[pi][iz]++ == 0) {
      change.enteredRow = true;
      ++to.rowsUsed;
      ++ci_[iz];
      ++ciSum_;
    }
    if (colCnt_[pi][jz]++ == 0) {
      change.enteredCol = true;
      ++to.colsUsed;
      ++cj_[jz];
      ++cjSum_;
    }
    ++to.total;

    rect_[oi].dirty = true;
    rect_[pi].dirty = true;
    return change;
  }

  struct OwnerTotals {
    std::int64_t total = 0;
    std::int32_t rowsUsed = 0;
    std::int32_t colsUsed = 0;
  };
  struct RectCache {
    Rect rect;
    bool dirty = true;
  };

  int n_;
  int owners_;
  std::vector<Proc> cells_;

  // Incremental counters, one slot per owner up to kMaxOwners (the first
  // owners_ are used, so a three-owner grid reads its counters exactly as
  // fixed three-slot arrays would). rowCnt_[x][i] = #elements of x in row i.
  std::array<std::vector<std::int32_t>, kMaxOwners> rowCnt_;
  std::array<std::vector<std::int32_t>, kMaxOwners> colCnt_;
  std::array<OwnerTotals, kMaxOwners> owner_{};

  // c_i / c_j per line plus running sums for O(1) VoC.
  std::vector<std::int8_t> ci_, cj_;
  std::int64_t ciSum_ = 0;
  std::int64_t cjSum_ = 0;

  // Lazily maintained enclosing rectangles, one per owner.
  mutable std::array<RectCache, kMaxOwners> rect_{};
};

/// Refuses a state with other than the paper's three owners: the
/// three-processor pipeline calls this at entry. Throws CheckError.
template <typename Q>
void requireThreeOwners(const Q& q) {
  PUSHPART_CHECK_MSG(q.owners() == kNumProcs,
                     "the three-processor pipeline needs a three-owner "
                     "partition, got " << q.owners() << " owners");
}

}  // namespace pushpart
