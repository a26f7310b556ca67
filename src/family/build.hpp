// Shared construction primitives for the layered and hierarchical families.
//
// Everything here follows the canonical constructors' discipline
// (shapes/candidates.cpp): the grid starts fully owned by the *base*
// owner (the fastest, P at three owners), every other member is carved with
// its exact element count, and any integer-granularity slack simply stays
// with the base owner. Builders return false instead of throwing when an
// integer allotment cannot fit — enumeration skips infeasible specs silently.
// One set of builders serves every owner count.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "grid/partition.hpp"

namespace pushpart::family_detail {

inline std::int64_t ceilDiv(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Splits n lines into bands: band k gets at least minLines[k] and the
/// vector sums to n, with the surplus handed out greedily toward each
/// band's real-valued target share targetLines[k] (largest deficit first).
/// Returns an empty vector when Σ minLines > n.
std::vector<int> allotLines(int n, const std::vector<int>& minLines,
                            const std::vector<double>& targetLines);

/// Claims `count` cells still owned by `base` inside the box
/// rows [r0, r1) × cols [c0, c1), scanning row-major (or column-major when
/// `colMajor`). Returns false (leaving a partial carve behind — callers
/// discard the grid) when the box runs out of base-owned cells.
inline bool carveBox(Partition& q, Proc base, Proc x, int r0, int r1, int c0,
                     int c1, std::int64_t count, bool colMajor = false) {
  std::int64_t remaining = count;
  if (colMajor) {
    for (int c = c0; c < c1 && remaining > 0; ++c)
      for (int r = r0; r < r1 && remaining > 0; ++r)
        if (q.at(r, c) == base) {
          q.set(r, c, x);
          --remaining;
        }
  } else {
    for (int r = r0; r < r1 && remaining > 0; ++r)
      for (int c = c0; c < c1 && remaining > 0; ++c)
        if (q.at(r, c) == base) {
          q.set(r, c, x);
          --remaining;
        }
  }
  return remaining == 0;
}

/// Claims `count` base-owned cells from `cells` starting at *cursor,
/// advancing the cursor past every visited position. Assigning consecutive
/// segments of one ordered cell list to successive owners is how regions of
/// any shape (strips, corner squares, L-remainders) are sliced among group
/// members with exact counts.
inline bool carveCells(Partition& q, Proc base, Proc x,
                       const std::vector<std::pair<int, int>>& cells,
                       std::size_t& cursor, std::int64_t count) {
  std::int64_t remaining = count;
  while (remaining > 0 && cursor < cells.size()) {
    const auto [r, c] = cells[cursor++];
    if (q.at(r, c) != base) continue;
    q.set(r, c, x);
    --remaining;
  }
  return remaining == 0;
}

/// One member of one layer: an owner and its exact cell count.
struct LayerMember {
  Proc owner;
  std::int64_t count = 0;
};

/// Builds a layer-based partition onto `q` (pre-filled with `base`):
/// layers become horizontal bands top→bottom (or vertical bands left→right
/// when !rowBands, i.e. the transpose), members sit side by side across
/// each band in listed order. Band depths and member widths are integer
/// allotments proportional to cell counts; members equal to `base` are
/// never carved (their share materializes as the uncarved remainder).
bool buildLayeredOnto(Partition& q, Proc base,
                      const std::vector<std::vector<LayerMember>>& layers,
                      bool rowBands);

}  // namespace pushpart::family_detail
