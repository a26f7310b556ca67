#include "grid/metrics.hpp"

#include <bit>
#include <vector>

namespace pushpart {

ProcComm procComm(const Partition& q, Proc x) {
  ProcComm out;
  out.elements = q.count(x);
  out.rowsUsed = q.rowsUsed(x);
  out.colsUsed = q.colsUsed(x);
  const auto n = static_cast<std::int64_t>(q.n());
  out.sendVolume = n * out.rowsUsed + n * out.colsUsed - out.elements;
  return out;
}

std::array<ProcComm, kNumProcs> allProcComm(const Partition& q) {
  std::array<ProcComm, kNumProcs> out;
  for (Proc x : kAllProcs) out[static_cast<std::size_t>(procIndex(x))] = procComm(q, x);
  return out;
}

std::int64_t volumeOfCommunication(const Partition& q) {
  return q.volumeOfCommunication();
}

std::int64_t overlapFlopSteps(const Partition& q, Proc x) {
  // Σ_{i,j,k} M[i][j]·M[i][k]·M[k][j]  where M is X's ownership mask.
  // Rewritten as Σ over owned cells (i,k) of dot(row_i, row_k) using packed
  // 64-bit row bitsets: O(#owned · N/64).
  const int n = q.n();
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(n) * words, 0);
  for (int i = 0; i < n; ++i) {
    if (q.rowCount(x, i) == 0) continue;
    auto* row = &rows[static_cast<std::size_t>(i) * words];
    for (int j = 0; j < n; ++j)
      if (q.at(i, j) == x)
        row[static_cast<std::size_t>(j) / 64] |=
            (std::uint64_t{1} << (static_cast<std::size_t>(j) % 64));
  }
  std::int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    if (q.rowCount(x, i) == 0) continue;
    const auto* ri = &rows[static_cast<std::size_t>(i) * words];
    for (int k = 0; k < n; ++k) {
      if (q.at(i, k) != x) continue;
      const auto* rk = &rows[static_cast<std::size_t>(k) * words];
      for (std::size_t w = 0; w < words; ++w)
        total += std::popcount(ri[w] & rk[w]);
    }
  }
  return total;
}

}  // namespace pushpart
