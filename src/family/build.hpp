// Shared construction primitives for the layered and hierarchical families.
//
// Everything here follows the canonical constructors' discipline
// (shapes/candidates.cpp): the grid starts fully owned by the *base*
// owner (the fastest, P at three owners), every other member claims its
// exact element count (Partition::claim), and any integer-granularity slack
// simply stays with the base owner. Builders return false instead of
// throwing when an integer allotment cannot fit — enumeration skips
// infeasible specs silently. One set of builders serves every owner count.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "grid/partition.hpp"

namespace pushpart::family_detail {

/// Splits n lines into bands: band k gets at least minLines[k] and the
/// vector sums to n, with the surplus handed out greedily toward each
/// band's real-valued target share targetLines[k] (largest deficit first).
/// Returns an empty vector when Σ minLines > n.
std::vector<int> allotLines(int n, const std::vector<int>& minLines,
                            const std::vector<double>& targetLines);

/// Claims `count` base-owned cells from `cells` starting at *cursor,
/// advancing the cursor past every visited position. Assigning consecutive
/// segments of one ordered cell list to successive owners is how regions
/// that are no box (a grid minus a hole, a super-owner's cells) are sliced
/// among group members with exact counts.
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
