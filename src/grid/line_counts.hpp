// A partition seen only through its per-line owner counts.
//
// The Eq. 1–9 models and the communication metrics never look at a cell:
// they read per-owner row and column counts, per-owner totals and the
// distinct-owner counts c_i, c_j. LineCounts holds exactly those counters
// and no N×N grid, so a partition made of a few rectangles is described in
// O(N) time and memory instead of O(N²). It offers the read-only half of
// Partition's counter API, so the templated metrics (grid/metrics.hpp) and
// models (model/models.hpp) evaluate it unchanged. The candidate shapes
// build one with candidateLines (shapes/candidates.hpp); the painted
// Partition stays the reference the tests compare it against.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "grid/proc.hpp"
#include "grid/rect.hpp"
#include "support/check.hpp"

namespace pushpart {

class LineCounts {
 public:
  /// N×N with every cell owned by P.
  explicit LineCounts(int n) : n_(n) {
    PUSHPART_CHECK_MSG(n > 0, "LineCounts needs n > 0, got " << n);
    const auto size = static_cast<std::size_t>(n);
    for (Proc p : kAllProcs) {
      const int fill = p == Proc::P ? n : 0;
      rowCnt_[procSlot(p)].assign(size, fill);
      colCnt_[procSlot(p)].assign(size, fill);
    }
    total_[procSlot(Proc::P)] = static_cast<std::int64_t>(n) * n;
  }

  /// Reassigns every cell of `r` from P to x. The cells must all still be
  /// P's: with no grid to consult, P simply keeps what the other owners do
  /// not take. O(height + width).
  void assign(const Rect& r, Proc x) {
    if (r.isEmpty()) return;
    PUSHPART_CHECK_MSG(r.rowBegin >= 0 && r.rowEnd <= n_ && r.colBegin >= 0 &&
                           r.colEnd <= n_,
                       "rect " << r << " outside the " << n_ << "x" << n_
                               << " grid");
    const auto take = [x](auto& perProc, int line, int cells) {
      perProc[procSlot(x)][static_cast<std::size_t>(line)] += cells;
      perProc[procSlot(Proc::P)][static_cast<std::size_t>(line)] -= cells;
    };
    for (int i = r.rowBegin; i < r.rowEnd; ++i) take(rowCnt_, i, r.width());
    for (int j = r.colBegin; j < r.colEnd; ++j) take(colCnt_, j, r.height());
    total_[procSlot(x)] += r.area();
    total_[procSlot(Proc::P)] -= r.area();
  }

  int n() const { return n_; }
  /// Always the paper's three owners.
  static constexpr int owners() { return kNumProcs; }

  // --- The read-only counter API of Partition ----------------------------

  int rowCount(Proc p, int i) const {
    return rowCnt_[procSlot(p)][static_cast<std::size_t>(i)];
  }
  int colCount(Proc p, int j) const {
    return colCnt_[procSlot(p)][static_cast<std::size_t>(j)];
  }
  bool rowHas(Proc p, int i) const { return rowCount(p, i) > 0; }
  bool colHas(Proc p, int j) const { return colCount(p, j) > 0; }
  std::int64_t count(Proc p) const { return total_[procSlot(p)]; }

  /// c_i and c_j (Eq. 1). O(kNumProcs).
  int procsInRow(int i) const {
    int c = 0;
    for (Proc p : kAllProcs) c += rowHas(p, i) ? 1 : 0;
    return c;
  }
  int procsInCol(int j) const {
    int c = 0;
    for (Proc p : kAllProcs) c += colHas(p, j) ? 1 : 0;
    return c;
  }

  /// Volume of Communication, Eq. 1. O(N).
  std::int64_t volumeOfCommunication() const {
    std::int64_t lineOwners = 0;
    for (int k = 0; k < n_; ++k) lineOwners += procsInRow(k) + procsInCol(k);
    return static_cast<std::int64_t>(n_) * (lineOwners - 2 * n_);
  }

 private:
  int n_;
  std::array<std::vector<std::int32_t>, kNumProcs> rowCnt_;
  std::array<std::vector<std::int32_t>, kNumProcs> colCnt_;
  std::array<std::int64_t, kNumProcs> total_{};
};

}  // namespace pushpart
