#include "grid/partition.hpp"

#include "support/fnv.hpp"
#include "support/scan.hpp"

namespace pushpart {

Partition::Partition(int n, Proc fill) : Partition(n, kNumProcs, fill) {}

Partition::Partition(int n, int owners)
    : Partition(n, owners, procFromIndex(owners - 1)) {}

Partition::Partition(int n, int owners, Proc fill) : n_(n), owners_(owners) {
  PUSHPART_CHECK_MSG(n > 0, "Partition size must be positive, got " << n);
  PUSHPART_CHECK_MSG(owners >= 2 && owners <= kMaxOwners,
                     "a partition has 2.." << kMaxOwners << " owners, got "
                                           << owners);
  PUSHPART_CHECK(procIndex(fill) < owners);
  const auto nz = static_cast<std::size_t>(n);
  const auto kz = static_cast<std::size_t>(owners);
  cells_.assign(nz * nz, fill);
  for (std::size_t x = 0; x < kz; ++x) {
    const std::int32_t fillCount = x == procSlot(fill) ? n : 0;
    rowCnt_[x].assign(nz, fillCount);
    colCnt_[x].assign(nz, fillCount);
  }
  owner_[procSlot(fill)] = {static_cast<std::int64_t>(n) * n, n, n};
  ci_.assign(nz, 1);
  cj_.assign(nz, 1);
  ciSum_ = n;
  cjSum_ = n;
}

void Partition::set(int i, int j, Proc p) {
  PUSHPART_CHECK_MSG(i >= 0 && i < n_ && j >= 0 && j < n_,
                     "cell (" << i << "," << j << ") out of range for n=" << n_);
  PUSHPART_CHECK_MSG(procIndex(p) < owners_, "owner " << procIndex(p)
                                                      << " out of range for "
                                                      << owners_ << " owners");
  const Proc old = at(i, j);
  if (old != p) reassign(i, j, old, p);
}

void Partition::swapCells(int i1, int j1, int i2, int j2) {
  const Proc a = at(i1, j1);
  const Proc b = at(i2, j2);
  if (a == b) return;
  set(i1, j1, b);
  set(i2, j2, a);
}

std::int64_t Partition::volumeOfCommunication() const {
  // Eq. 1 with the sums of c_i and c_j kept incrementally:
  //   Σ_i N(c_i − 1) = N·(Σ c_i − N).
  return static_cast<std::int64_t>(n_) * (ciSum_ - n_) +
         static_cast<std::int64_t>(n_) * (cjSum_ - n_);
}

const Rect& Partition::enclosingRect(Proc p) const {
  RectCache& cache = rect_[procSlot(p)];
  if (cache.dirty) recomputeRect(p);
  return cache.rect;
}

void Partition::recomputeRect(Proc p) const {
  RectCache& cache = rect_[procSlot(p)];
  cache.dirty = false;
  if (count(p) == 0) {
    cache.rect = Rect::empty();
    return;
  }
  // count(p) > 0 here, so the scans cannot come back empty.
  const auto& rows = rowCnt_[procSlot(p)];
  const auto& cols = colCnt_[procSlot(p)];
  const int top = static_cast<int>(firstNonZero(rows));
  const int bottom = static_cast<int>(lastNonZero(rows));
  const int left = static_cast<int>(firstNonZero(cols));
  const int right = static_cast<int>(lastNonZero(cols));
  cache.rect = Rect{top, bottom + 1, left, right + 1};
}

std::uint64_t Partition::hash() const {
  // Collisions only risk a premature cycle verdict in the DFA, never a
  // correctness violation.
  return fnv1a(std::as_bytes(std::span(cells_)));
}

void Partition::validateCounters() const {
  const auto nz = static_cast<std::size_t>(n_);
  const auto kz = static_cast<std::size_t>(owners_);
  const std::vector<std::int32_t> zeros(nz, 0);
  std::vector<std::vector<std::int32_t>> rowCnt(kz, zeros), colCnt(kz, zeros);
  std::vector<std::int64_t> total(kz, 0);
  for (int i = 0; i < n_; ++i)
    for (int j = 0; j < n_; ++j) {
      const Proc x = at(i, j);
      PUSHPART_CHECK_MSG(procIndex(x) < owners_,
                         "cell (" << i << "," << j << ") has owner "
                                  << procIndex(x));
      ++rowCnt[procSlot(x)][static_cast<std::size_t>(i)];
      ++colCnt[procSlot(x)][static_cast<std::size_t>(j)];
      ++total[procSlot(x)];
    }

  std::int64_t ciSum = 0, cjSum = 0;
  for (std::size_t i = 0; i < nz; ++i) {
    int ci = 0, cj = 0;
    for (std::size_t x = 0; x < kz; ++x) {
      PUSHPART_CHECK_MSG(rowCnt[x][i] == rowCnt_[x][i],
                         "rowCnt mismatch proc=" << x << " row=" << i);
      PUSHPART_CHECK_MSG(colCnt[x][i] == colCnt_[x][i],
                         "colCnt mismatch proc=" << x << " col=" << i);
      if (rowCnt[x][i] > 0) ++ci;
      if (colCnt[x][i] > 0) ++cj;
    }
    PUSHPART_CHECK_MSG(ci == ci_[i], "c_i mismatch at row " << i);
    PUSHPART_CHECK_MSG(cj == cj_[i], "c_j mismatch at col " << i);
    ciSum += ci;
    cjSum += cj;
  }
  PUSHPART_CHECK(ciSum == ciSum_);
  PUSHPART_CHECK(cjSum == cjSum_);

  for (std::size_t x = 0; x < kz; ++x) {
    PUSHPART_CHECK_MSG(total[x] == owner_[x].total,
                       "total mismatch proc=" << x);
    int rowsUsed = 0, colsUsed = 0;
    for (std::size_t i = 0; i < nz; ++i) {
      if (rowCnt[x][i] > 0) ++rowsUsed;
      if (colCnt[x][i] > 0) ++colsUsed;
    }
    PUSHPART_CHECK_MSG(rowsUsed == owner_[x].rowsUsed,
                       "rowsUsed mismatch proc=" << x);
    PUSHPART_CHECK_MSG(colsUsed == owner_[x].colsUsed,
                       "colsUsed mismatch proc=" << x);
  }
}

}  // namespace pushpart
