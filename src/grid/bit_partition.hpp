// Bitboard partition state — the fast engine for the DFA search.
//
// The element-exact Partition stores one owner byte per cell, so a push
// legality scan walks the active processor's rectangle cell by cell. This
// class holds that same grid — its cells, counters, enclosing rectangles and
// hash() are reused as they are — and adds, per owner, one bitset of 64-bit
// words for every physical row and every physical column (bit j of row i's
// set is "cell (i, j) belongs to the owner"), plus one row-presence and one
// column-presence bitset (bit i is "rowHas(owner, i)"). Both line
// orientations are kept because the oriented push view maps logical rows onto
// physical columns for Right/Left pushes.
//
// set() and swapCells() keep every bitset current in O(1) on top of the
// grid's own O(1) counter update. The push engine (push/engine.hpp) detects
// this class through the HasOwnerBits concept and scans destinations a word
// at a time: the owners a destination may have are ORed into one candidate
// word, the active processor's column presence is ANDed in where the push
// type needs it, and std::countr_zero picks the first legal cell — the cell
// the grid's cell walk would pick. src/verify locksteps the two engines move
// for move.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "grid/partition.hpp"
#include "grid/proc.hpp"
#include "grid/rect.hpp"
#include "support/check.hpp"

namespace pushpart {

class BitPartition {
 public:
  /// N×N state with every cell assigned to `fill`.
  explicit BitPartition(int n, Proc fill = Proc::P);

  /// Adopts the element grid and derives every bitset from its cells
  /// (O(N²), used at engine boundaries and in the differential tests). The
  /// bitboard holds the paper's three owners: a grid with any other owner
  /// count throws CheckError.
  explicit BitPartition(Partition q);

  /// The element grid this state wraps.
  const Partition& grid() const { return grid_; }

  int n() const { return grid_.n(); }

  /// Always the paper's three owners, fastest P: compile-time constants, so
  /// the engine's per-owner loops on this state unroll as before.
  static constexpr int owners() { return kNumProcs; }
  static constexpr Proc fastest() { return Proc::P; }

  Proc at(int i, int j) const { return grid_.at(i, j); }

  /// Reassigns cell (i, j) to processor `p`, updating the grid's counters
  /// and every owner and presence bit it touches. O(1).
  void set(int i, int j, Proc p);

  /// Swaps the owners of two cells (no-op if they already match), updating
  /// each cell's counters and bits in one pass. O(1); the push engine
  /// commits each planned move with one call.
  void swapCells(int i1, int j1, int i2, int j2) {
    checkCell(i1, j1);
    checkCell(i2, j2);
    const Proc a = grid_.at(i1, j1);
    const Proc b = grid_.at(i2, j2);
    if (a == b) return;
    reassign(i1, j1, a, b);
    reassign(i2, j2, b, a);
  }

  // --- Owner bits (bit b of word w covers index 64·w + b) -----------------

  /// p's cells in physical row i, over increasing column index.
  std::span<const std::uint64_t> rowBits(Proc p, int i) const {
    return line(rowBits_, p, i);
  }
  /// p's cells in physical column j, over increasing row index.
  std::span<const std::uint64_t> colBits(Proc p, int j) const {
    return line(colBits_, p, j);
  }
  /// Rows containing p: bit i set iff rowHas(p, i).
  std::span<const std::uint64_t> rowPresence(Proc p) const {
    return rowPresence_[procSlot(p)];
  }
  /// Columns containing p: bit j set iff colHas(p, j).
  std::span<const std::uint64_t> colPresence(Proc p) const {
    return colPresence_[procSlot(p)];
  }

  // --- Occupancy queries (the grid's O(1) counters) -----------------------

  int rowCount(Proc p, int i) const { return grid_.rowCount(p, i); }
  int colCount(Proc p, int j) const { return grid_.colCount(p, j); }
  bool rowHas(Proc p, int i) const { return grid_.rowHas(p, i); }
  bool colHas(Proc p, int j) const { return grid_.colHas(p, j); }
  std::int64_t count(Proc p) const { return grid_.count(p); }
  int rowsUsed(Proc p) const { return grid_.rowsUsed(p); }
  int colsUsed(Proc p) const { return grid_.colsUsed(p); }
  std::int64_t volumeOfCommunication() const {
    return grid_.volumeOfCommunication();
  }
  const Rect& enclosingRect(Proc p) const { return grid_.enclosingRect(p); }

  // --- Identity -----------------------------------------------------------

  /// The grid's hash: a state hashes the same on both engines, so cycle
  /// verdicts agree even on a collision.
  std::uint64_t hash() const { return grid_.hash(); }

  /// Owner equality (the bits are a function of the cells).
  bool operator==(const BitPartition& o) const { return grid_ == o.grid_; }

  /// Full O(N²) revalidation: the grid's counters, every owner bit against
  /// its cell, and every presence bit against its line count. Throws
  /// CheckError on any mismatch.
  void validateCounters() const;

 private:
  using LineBits = std::array<std::vector<std::uint64_t>, kNumProcs>;

  std::span<const std::uint64_t> line(const LineBits& bits, Proc p,
                                      int k) const {
    return {bits[procSlot(p)].data() + static_cast<std::size_t>(k) *
                                           static_cast<std::size_t>(words_),
            static_cast<std::size_t>(words_)};
  }

  static constexpr std::uint64_t bitOf(int k) {
    return std::uint64_t{1} << (static_cast<unsigned>(k) & 63u);
  }
  static constexpr std::size_t wordOf(int k) {
    return static_cast<std::size_t>(k >> 6);
  }

  /// Throws CheckError unless (i, j) is a cell of the grid.
  void checkCell(int i, int j) const {
    const int n = grid_.n();
    PUSHPART_CHECK_MSG(i >= 0 && i < n && j >= 0 && j < n,
                       "cell (" << i << "," << j << ") out of range for n="
                                << n);
  }

  /// Hands cell (i, j) from its owner `old` to `p` != old: the grid's
  /// counters, then the four owner bits and the presence bits of the lines
  /// the grid reports `old` left or `p` entered.
  void reassign(int i, int j, Proc old, Proc p) {
    const Partition::LineChange change = grid_.reassign(i, j, old, p);
    const auto w = static_cast<std::size_t>(words_);
    const std::size_t o = procSlot(old);
    const std::size_t x = procSlot(p);
    const std::size_t rowWord = static_cast<std::size_t>(i) * w + wordOf(j);
    const std::size_t colWord = static_cast<std::size_t>(j) * w + wordOf(i);
    rowBits_[o][rowWord] &= ~bitOf(j);
    rowBits_[x][rowWord] |= bitOf(j);
    colBits_[o][colWord] &= ~bitOf(i);
    colBits_[x][colWord] |= bitOf(i);
    if (change.leftRow) rowPresence_[o][wordOf(i)] &= ~bitOf(i);
    if (change.leftCol) colPresence_[o][wordOf(j)] &= ~bitOf(j);
    if (change.enteredRow) rowPresence_[x][wordOf(i)] |= bitOf(i);
    if (change.enteredCol) colPresence_[x][wordOf(j)] |= bitOf(j);
  }

  Partition grid_;
  int words_;
  LineBits rowBits_;  ///< [owner][row · words + word]
  LineBits colBits_;  ///< [owner][column · words + word]
  LineBits rowPresence_;
  LineBits colPresence_;
};

}  // namespace pushpart
