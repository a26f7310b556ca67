#include "grid/bit_partition.hpp"

#include <utility>

#include "support/check.hpp"

namespace pushpart {

namespace {

constexpr std::uint64_t bitOf(int k) {
  return std::uint64_t{1} << (static_cast<unsigned>(k) & 63u);
}
constexpr std::size_t wordOf(int k) { return static_cast<std::size_t>(k >> 6); }

}  // namespace

BitPartition::BitPartition(int n, Proc fill)
    : BitPartition(Partition(n, fill)) {}

BitPartition::BitPartition(Partition q)
    : grid_(std::move(q)), words_((grid_.n() + 63) / 64) {
  const int n = grid_.n();
  const auto w = static_cast<std::size_t>(words_);
  const std::size_t lines = static_cast<std::size_t>(n) * w;
  for (int x = 0; x < kNumProcs; ++x) {
    const auto xz = static_cast<std::size_t>(x);
    rowBits_[xz].assign(lines, 0);
    colBits_[xz].assign(lines, 0);
    rowPresence_[xz].assign(w, 0);
    colPresence_[xz].assign(w, 0);
  }
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      const std::size_t x = procSlot(grid_.at(i, j));
      rowBits_[x][static_cast<std::size_t>(i) * w + wordOf(j)] |= bitOf(j);
      colBits_[x][static_cast<std::size_t>(j) * w + wordOf(i)] |= bitOf(i);
      rowPresence_[x][wordOf(i)] |= bitOf(i);
      colPresence_[x][wordOf(j)] |= bitOf(j);
    }
}

void BitPartition::set(int i, int j, Proc p) {
  const int n = grid_.n();
  PUSHPART_CHECK_MSG(i >= 0 && i < n && j >= 0 && j < n,
                     "cell (" << i << "," << j << ") out of range for n=" << n);
  const Proc old = grid_.at(i, j);
  if (old == p) return;
  grid_.set(i, j, p);

  const auto w = static_cast<std::size_t>(words_);
  const std::size_t o = procSlot(old);
  const std::size_t x = procSlot(p);
  const std::size_t rowWord = static_cast<std::size_t>(i) * w + wordOf(j);
  const std::size_t colWord = static_cast<std::size_t>(j) * w + wordOf(i);
  rowBits_[o][rowWord] &= ~bitOf(j);
  rowBits_[x][rowWord] |= bitOf(j);
  colBits_[o][colWord] &= ~bitOf(i);
  colBits_[x][colWord] |= bitOf(i);

  // The grid's counters are already updated: `old` may have left the line,
  // `p` is now certainly in it.
  if (!grid_.rowHas(old, i)) rowPresence_[o][wordOf(i)] &= ~bitOf(i);
  if (!grid_.colHas(old, j)) colPresence_[o][wordOf(j)] &= ~bitOf(j);
  rowPresence_[x][wordOf(i)] |= bitOf(i);
  colPresence_[x][wordOf(j)] |= bitOf(j);
}

void BitPartition::swapCells(int i1, int j1, int i2, int j2) {
  const Proc a = at(i1, j1);
  const Proc b = at(i2, j2);
  if (a == b) return;
  set(i1, j1, b);
  set(i2, j2, a);
}

void BitPartition::validateCounters() const {
  grid_.validateCounters();
  const int n = grid_.n();
  auto bit = [](std::span<const std::uint64_t> bits, int k) {
    return (bits[wordOf(k)] & bitOf(k)) != 0;
  };
  for (Proc x : kAllProcs) {
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        const bool owns = grid_.at(i, j) == x;
        PUSHPART_CHECK_MSG(bit(rowBits(x, i), j) == owns,
                           procName(x) << " row bit (" << i << "," << j
                                       << ") disagrees with the cell");
        PUSHPART_CHECK_MSG(bit(colBits(x, j), i) == owns,
                           procName(x) << " column bit (" << i << "," << j
                                       << ") disagrees with the cell");
      }
    for (int k = 0; k < n; ++k) {
      PUSHPART_CHECK_MSG(bit(rowPresence(x), k) == grid_.rowHas(x, k),
                         procName(x) << " row presence bit " << k
                                     << " disagrees with the row count");
      PUSHPART_CHECK_MSG(bit(colPresence(x), k) == grid_.colHas(x, k),
                         procName(x) << " column presence bit " << k
                                     << " disagrees with the column count");
    }
    // Bits past n in each line's last word must stay clear: the scan masks
    // to the active rectangle, but a stray bit would still be a corruption.
    const int tail = words_ * 64;
    for (int k = n; k < tail; ++k) {
      PUSHPART_CHECK_MSG(!bit(rowPresence(x), k) && !bit(colPresence(x), k),
                         procName(x) << " presence bit " << k << " past n");
      for (int l = 0; l < n; ++l)
        PUSHPART_CHECK_MSG(!bit(rowBits(x, l), k) && !bit(colBits(x, l), k),
                           procName(x) << " line " << l << " bit " << k
                                       << " past n");
    }
  }
}

}  // namespace pushpart
