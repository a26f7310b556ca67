// Direction-canonicalising view over a partition state.
//
// The Push algorithm is written once for the canonical Down direction:
// "clean the lowest-index logical row of the active processor's enclosing
// rectangle, relocating elements into higher-index logical rows". This view
// maps logical (row, col) coordinates onto the physical grid so that the same
// code performs Up, Left and Right pushes:
//
//   Down : (r, c) -> (r, c)            logical rows are physical rows
//   Up   : (r, c) -> (n-1-r, c)        rows flipped
//   Right: (r, c) -> (c, r)            logical rows are physical columns
//   Left : (r, c) -> (c, n-1-r)        columns flipped and transposed
//
// Mutations go through two calls. The grid's cell walk writes each cell with
// set(), which records an undo log, so a failed push attempt can be rolled
// back exactly; the bitboard engine plans an attempt read-only and commits an
// accepted one with swapCells(), one call per planned move.
//
// The view is a template over the state type Q so the same engine drives the
// element-exact Partition and the bitboard BitPartition; Q must provide
// at/rowHas/colHas/rowCount/colCount/enclosingRect/n, set for the grid's walk
// and swapCells for a bitboard commit, and the engine also reads its
// owners()/fastest(). A view over a const Q is a read-only view (the planner
// and pushAvailable use one). States that additionally expose owner bits
// (rowBits/colBits/rowPresence/colPresence) get word-granular
// lineBits()/colPresenceBits() accessors, which the push engine uses to test
// 64 destination cells per legality decision.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "grid/partition.hpp"
#include "push/direction.hpp"

namespace pushpart {

/// One grid mutation, recorded for rollback (physical coordinates).
struct CellUndo {
  int i;
  int j;
  Proc previous;
};

/// Detects states that store owner bitsets: rowBits(p, i) / colBits(p, j)
/// hold p's cells of physical row i / column j over increasing physical
/// index, rowPresence(p) / colPresence(p) the lines containing p — all as
/// spans of 64-bit words, bit b of word w covering index 64·w + b.
template <typename Q>
concept HasOwnerBits = requires(const Q& q, Proc p, int k) {
  { q.rowBits(p, k) } -> std::convertible_to<std::span<const std::uint64_t>>;
  { q.colBits(p, k) } -> std::convertible_to<std::span<const std::uint64_t>>;
  { q.rowPresence(p) } -> std::convertible_to<std::span<const std::uint64_t>>;
  { q.colPresence(p) } -> std::convertible_to<std::span<const std::uint64_t>>;
};

template <typename Q>
class OrientedView {
 public:
  OrientedView(Q& q, Direction dir) : q_(q), dir_(dir) {}

  int n() const { return q_.n(); }

  Proc at(int r, int c) const {
    const auto [i, j] = toPhysical(r, c);
    return q_.at(i, j);
  }

  /// Reassigns a cell and records the previous owner in `undo`.
  void set(int r, int c, Proc p, std::vector<CellUndo>& undo) {
    const auto [i, j] = toPhysical(r, c);
    const Proc prev = q_.at(i, j);
    if (prev == p) return;
    undo.push_back({i, j, prev});
    q_.set(i, j, p);
  }

  /// Swaps the owners of two cells, with no undo record (an accepted plan's
  /// commit).
  void swapCells(int r1, int c1, int r2, int c2) {
    const auto [i1, j1] = toPhysical(r1, c1);
    const auto [i2, j2] = toPhysical(r2, c2);
    q_.swapCells(i1, j1, i2, j2);
  }

  /// Number of p's elements in logical row r.
  int rowCount(Proc p, int r) const {
    switch (dir_) {
      case Direction::Down: return q_.rowCount(p, r);
      case Direction::Up: return q_.rowCount(p, n() - 1 - r);
      case Direction::Right: return q_.colCount(p, r);
      case Direction::Left: return q_.colCount(p, n() - 1 - r);
    }
    return 0;
  }

  /// Number of p's elements in logical column c.
  int colCount(Proc p, int c) const {
    switch (dir_) {
      case Direction::Down:
      case Direction::Up: return q_.colCount(p, c);
      case Direction::Right:
      case Direction::Left: return q_.rowCount(p, c);
    }
    return 0;
  }

  /// Does logical row r contain any element of p?
  bool rowHas(Proc p, int r) const {
    switch (dir_) {
      case Direction::Down: return q_.rowHas(p, r);
      case Direction::Up: return q_.rowHas(p, n() - 1 - r);
      case Direction::Right: return q_.colHas(p, r);
      case Direction::Left: return q_.colHas(p, n() - 1 - r);
    }
    return false;
  }

  /// Does logical column c contain any element of p?
  bool colHas(Proc p, int c) const {
    switch (dir_) {
      case Direction::Down:
      case Direction::Up: return q_.colHas(p, c);
      case Direction::Right:
      case Direction::Left: return q_.rowHas(p, c);
    }
    return false;
  }

  /// p's enclosing rectangle in logical coordinates.
  Rect rect(Proc p) const {
    const Rect r = q_.enclosingRect(p);
    if (r.isEmpty()) return Rect::empty();
    switch (dir_) {
      case Direction::Down:
        return r;
      case Direction::Up:
        return Rect{n() - r.rowEnd, n() - r.rowBegin, r.colBegin, r.colEnd};
      case Direction::Right:
        return Rect{r.colBegin, r.colEnd, r.rowBegin, r.rowEnd};
      case Direction::Left:
        return Rect{n() - r.colEnd, n() - r.colBegin, r.rowBegin, r.rowEnd};
    }
    return r;
  }

  /// p's cells in logical row r, bit c covering logical column c. Available
  /// only on bitboard states. In all four orientations a logical row maps
  /// onto one physical row or column traversed in *increasing* physical
  /// index, so the physical bit index is already the logical column.
  std::span<const std::uint64_t> lineBits(Proc p, int r) const
    requires HasOwnerBits<Q>
  {
    switch (dir_) {
      case Direction::Down: return q_.rowBits(p, r);
      case Direction::Up: return q_.rowBits(p, n() - 1 - r);
      case Direction::Right: return q_.colBits(p, r);
      case Direction::Left: return q_.colBits(p, n() - 1 - r);
    }
    return q_.rowBits(p, r);
  }

  /// Logical columns containing p: bit c set iff colHas(p, c). Logical
  /// columns are physical columns (Down/Up) or physical rows (Right/Left),
  /// never flipped, so this is a physical presence set as stored.
  std::span<const std::uint64_t> colPresenceBits(Proc p) const
    requires HasOwnerBits<Q>
  {
    switch (dir_) {
      case Direction::Down:
      case Direction::Up: return q_.colPresence(p);
      case Direction::Right:
      case Direction::Left: return q_.rowPresence(p);
    }
    return q_.colPresence(p);
  }

  Direction direction() const { return dir_; }
  const Q& partition() const { return q_; }

 private:
  struct Phys {
    int i;
    int j;
  };
  Phys toPhysical(int r, int c) const {
    switch (dir_) {
      case Direction::Down: return {r, c};
      case Direction::Up: return {n() - 1 - r, c};
      case Direction::Right: return {c, r};
      case Direction::Left: return {c, n() - 1 - r};
    }
    return {r, c};
  }

  Q& q_;
  Direction dir_;
};

/// The element-exact view the original engine was written against.
using OrientedGrid = OrientedView<Partition>;

/// Reverts mutations recorded by OrientedView::set, newest first.
template <typename Q>
inline void rollback(Q& q, const std::vector<CellUndo>& undo) {
  for (auto it = undo.rbegin(); it != undo.rend(); ++it)
    q.set(it->i, it->j, it->previous);
}

}  // namespace pushpart
