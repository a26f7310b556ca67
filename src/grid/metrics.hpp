// Communication metrics over a partition (paper Eqs. 1 and 6).
//
// Header-only templates over the counter API that Partition, BitPartition
// (which forwards to its grid's counters) and LineCounts share, so they
// evaluate any of the three: the directed pair volumes the five performance
// models route (they sum to the Eq. 1 VoC, and a sender's row sums to its
// send volume d_X), the rectangle tests of the beautify pass and the
// bulk-overlap element count. The line sums walk LineGroups: a LineCounts'
// runs, or a grid's single lines, so they are written once for all three.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "grid/line_counts.hpp"
#include "grid/partition.hpp"

namespace pushpart {

/// One axis of a state as groups of consecutive equal lines, in line order.
/// A Partition or BitPartition lists each line as a group of one, read from
/// its O(1) line counters; LineCounts lists its runs (the specialization
/// below). A sum over the groups adds each group's term times its length.
template <typename Q>
class LineGroups {
 public:
  LineGroups(const Q& q, Axis axis) : q_(q), axis_(axis) {}
  int size() const { return q_.n(); }
  LineRun operator[](int k) const {
    LineRun line{k, k + 1, {}};
    for (Proc p : kAllProcs)
      line.count[procSlot(p)] =
          axis_ == Axis::kRows ? q_.rowCount(p, k) : q_.colCount(p, k);
    return line;
  }

 private:
  const Q& q_;
  Axis axis_;
};

template <>
class LineGroups<LineCounts> {
 public:
  LineGroups(const LineCounts& q, Axis axis) : runs_(q.runs(axis)) {}
  int size() const { return static_cast<int>(runs_.size()); }
  const LineRun& operator[](int g) const {
    return runs_[static_cast<std::size_t>(g)];
  }

 private:
  const std::vector<LineRun>& runs_;
};

/// Directed per-pair communication volumes under kij semantics.
/// pairVolumes(q)[s][r] = elements processor s must send to processor r:
/// an element (i,j) of s travels to r when r owns cells in row i (r will
/// need it as the A(i,k)-pivot) or, separately, in column j (as the
/// B(k,j)-pivot) — both uses counted, matching Eq. 1:
///   Σ_{s≠r} pairVolumes[s][r] == q.volumeOfCommunication().
/// Diagonal entries are zero. Indexed by procIndex(). One pass over each
/// axis's line groups.
template <typename Q>
std::array<std::array<std::int64_t, kNumProcs>, kNumProcs> pairVolumes(
    const Q& q) {
  std::array<std::array<std::int64_t, kNumProcs>, kNumProcs> v{};
  for (Axis axis : {Axis::kRows, Axis::kCols}) {
    const LineGroups<Q> groups(q, axis);
    for (int g = 0; g < groups.size(); ++g) {
      const LineRun& lines = groups[g];
      for (Proc s : kAllProcs) {
        const std::int64_t sent =
            static_cast<std::int64_t>(lines.len()) * lines.count[procSlot(s)];
        for (Proc r : kAllProcs)
          if (r != s && lines.has(r)) v[procSlot(s)][procSlot(r)] += sent;
      }
    }
  }
  return v;
}

/// True when x's cells exactly fill its enclosing rectangle (and x owns at
/// least one cell). Templated over the engine state (Partition or
/// BitPartition): only the O(1) counter API is consumed.
template <typename Q>
bool isRectangle(const Q& q, Proc x) {
  const Rect r = q.enclosingRect(x);
  return !r.isEmpty() && q.count(x) == r.area();
}

/// True when x's cells fill its enclosing rectangle except for missing cells
/// confined to a single edge row or edge column of that rectangle (paper
/// Fig. 3's *asymptotically rectangular*). Exact rectangles qualify.
/// Templated like isRectangle; the beautify pass evaluates it on both
/// engines.
template <typename Q>
bool isAsymptoticallyRectangular(const Q& q, Proc x) {
  const Rect r = q.enclosingRect(x);
  if (r.isEmpty()) return false;
  if (q.count(x) == r.area()) return true;

  // All missing cells must lie in one edge row or one edge column of r.
  // Check each of the four edges: removing that line, the remainder must be
  // completely full, and the edge itself may be partial (it is non-empty by
  // definition of the enclosing rectangle).
  auto rowFull = [&](int i) { return q.rowCount(x, i) >= r.width(); };
  auto colFull = [&](int j) { return q.colCount(x, j) >= r.height(); };

  auto allRowsFullExcept = [&](int skip) {
    for (int i = r.rowBegin; i < r.rowEnd; ++i)
      if (i != skip && !rowFull(i)) return false;
    return true;
  };
  auto allColsFullExcept = [&](int skip) {
    for (int j = r.colBegin; j < r.colEnd; ++j)
      if (j != skip && !colFull(j)) return false;
    return true;
  };

  // A partial top or bottom row: every other row of the rectangle is full
  // (full rows imply full columns elsewhere automatically).
  if (allRowsFullExcept(r.rowBegin)) return true;
  if (allRowsFullExcept(r.rowEnd - 1)) return true;
  if (allColsFullExcept(r.colBegin)) return true;
  if (allColsFullExcept(r.colEnd - 1)) return true;
  return false;
}

/// Number of elements processor X can compute with zero communication under
/// bulk overlap (SCO/PCO): C(i,j) owned by X such that X owns *every* element
/// of pivot row i and pivot column j it needs — i.e. rows i and columns j
/// fully owned by X. Every cell of a full row is X's, so the count is
/// (#rows X fully owns) × (#columns X fully owns). One pass over each axis's
/// line groups.
template <typename Q>
std::int64_t overlapElements(const Q& q, Proc x) {
  const auto fullLines = [&](Axis axis) {
    const LineGroups<Q> groups(q, axis);
    std::int64_t full = 0;
    for (int g = 0; g < groups.size(); ++g) {
      const LineRun& lines = groups[g];
      if (lines.count[procSlot(x)] == q.n()) full += lines.len();
    }
    return full;
  };
  return fullLines(Axis::kRows) * fullLines(Axis::kCols);
}

}  // namespace pushpart
