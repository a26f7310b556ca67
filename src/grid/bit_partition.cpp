#include "grid/bit_partition.hpp"

#include <utility>

#include "support/check.hpp"

namespace pushpart {

BitPartition::BitPartition(int n, Proc fill)
    : BitPartition(Partition(n, fill)) {}

BitPartition::BitPartition(Partition q)
    : grid_(std::move(q)), words_((grid_.n() + 63) / 64) {
  requireThreeOwners(grid_);
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
  checkCell(i, j);
  PUSHPART_CHECK_MSG(procIndex(p) < kNumProcs,
                     "owner " << procIndex(p) << " out of range for "
                              << kNumProcs << " owners");
  const Proc old = grid_.at(i, j);
  if (old != p) reassign(i, j, old, p);
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
