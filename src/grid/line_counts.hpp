// A partition seen only through its per-line owner counts, run by run.
//
// The Eq. 1–9 models and the communication metrics never look at a cell:
// they read per-owner row and column counts, per-owner totals and the
// distinct-owner counts c_i, c_j. LineCounts holds exactly those counters
// and no N×N grid. Each axis is stored as runs of consecutive lines whose
// per-owner counts are equal: r rectangles cut an axis into at most 2r + 1
// runs, so a candidate shape (four rectangles, at most nine runs per axis)
// is described and modeled in time and memory that do not grow with N. The
// templated metrics (grid/metrics.hpp) and models (model/models.hpp) walk
// these runs where they walk a Partition's single lines. The candidate
// shapes build one with candidateLines (shapes/candidates.hpp); the painted
// Partition stays the reference the tests compare it against.
//
// A run here is a run of equal *lines*, not a run of owners within a line.
// Walk states keep their grids (DESIGN.md §15): only a few rectangles bound
// the number of runs.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "grid/proc.hpp"
#include "grid/rect.hpp"
#include "support/check.hpp"

namespace pushpart {

enum class Axis : std::uint8_t { kRows, kCols };

/// Lines [begin, end) of one axis, each holding count[procSlot(p)] cells of
/// every owner p.
struct LineRun {
  int begin = 0;
  int end = 0;
  std::array<std::int32_t, kNumProcs> count{};

  int len() const { return end - begin; }
  bool has(Proc p) const { return count[procSlot(p)] > 0; }
  /// c_i (or c_j) of each line in the run: its distinct owners (Eq. 1).
  int procs() const {
    int c = 0;
    for (Proc p : kAllProcs) c += has(p) ? 1 : 0;
    return c;
  }
};

class LineCounts {
 public:
  /// N×N with every cell owned by P: one run per axis.
  explicit LineCounts(int n) : n_(n) {
    PUSHPART_CHECK_MSG(n > 0, "LineCounts needs n > 0, got " << n);
    LineRun all{0, n, {}};
    all.count[procSlot(Proc::P)] = n;
    // candidateLines' four rectangles leave at most nine runs per axis.
    rows_.reserve(9);
    cols_.reserve(9);
    rows_.push_back(all);
    cols_.push_back(all);
    total_[procSlot(Proc::P)] = static_cast<std::int64_t>(n) * n;
  }

  /// Reassigns every cell of `r` from P to x. The cells must all still be
  /// P's: with no grid to consult, P simply keeps what the other owners do
  /// not take. Splits at most the two runs per axis that r's edges cut.
  void assign(const Rect& r, Proc x) {
    if (r.isEmpty()) return;
    PUSHPART_CHECK_MSG(r.rowBegin >= 0 && r.rowEnd <= n_ && r.colBegin >= 0 &&
                           r.colEnd <= n_,
                       "rect " << r << " outside the " << n_ << "x" << n_
                               << " grid");
    take(rows_, r.rowBegin, r.rowEnd, x, r.width());
    take(cols_, r.colBegin, r.colEnd, x, r.height());
    total_[procSlot(x)] += r.area();
    total_[procSlot(Proc::P)] -= r.area();
  }

  int n() const { return n_; }
  /// Always the paper's three owners.
  static constexpr int owners() { return kNumProcs; }
  std::int64_t count(Proc p) const { return total_[procSlot(p)]; }

  /// The runs of one axis in line order; they tile [0, N).
  const std::vector<LineRun>& runs(Axis axis) const {
    return axis == Axis::kRows ? rows_ : cols_;
  }

  /// Volume of Communication, Eq. 1, one term per run.
  std::int64_t volumeOfCommunication() const {
    std::int64_t lineOwners = 0;
    for (const auto* runs : {&rows_, &cols_})
      for (const LineRun& run : *runs)
        lineOwners += static_cast<std::int64_t>(run.len()) * run.procs();
    return static_cast<std::int64_t>(n_) * (lineOwners - 2 * n_);
  }

  /// The same lines with every cell of owner x given to label[procSlot(x)];
  /// `label` must be a permutation of the owners.
  LineCounts relabeled(const std::array<Proc, kNumProcs>& label) const {
    PUSHPART_CHECK_MSG(label[0] != label[1] && label[0] != label[2] &&
                           label[1] != label[2],
                       "relabel is not a permutation of the owners");
    LineCounts out = *this;
    for (auto* runs : {&out.rows_, &out.cols_})
      for (LineRun& run : *runs) run.count = permuted(run.count, label);
    out.total_ = permuted(total_, label);
    return out;
  }

 private:
  template <typename T>
  static std::array<T, kNumProcs> permuted(
      const std::array<T, kNumProcs>& byOwner,
      const std::array<Proc, kNumProcs>& label) {
    std::array<T, kNumProcs> out{};
    for (Proc x : kAllProcs)
      out[procSlot(label[procSlot(x)])] = byOwner[procSlot(x)];
    return out;
  }

  /// Moves `cells` cells of every line in [begin, end) from P to x.
  static void take(std::vector<LineRun>& runs, int begin, int end, Proc x,
                   int cells) {
    splitAt(runs, begin);
    splitAt(runs, end);
    for (LineRun& run : runs) {
      if (run.begin < begin || run.end > end) continue;
      run.count[procSlot(x)] += cells;
      run.count[procSlot(Proc::P)] -= cells;
    }
  }

  /// Makes `line` the first line of a run, when a run crosses it.
  static void splitAt(std::vector<LineRun>& runs, int line) {
    for (auto it = runs.begin(); it != runs.end(); ++it) {
      if (it->begin >= line || it->end <= line) continue;
      LineRun right = *it;
      right.begin = line;
      it->end = line;
      runs.insert(it + 1, right);
      return;
    }
  }

  int n_;
  std::vector<LineRun> rows_;
  std::vector<LineRun> cols_;
  std::array<std::int64_t, kNumProcs> total_{};
};

}  // namespace pushpart
