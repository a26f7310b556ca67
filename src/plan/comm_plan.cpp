#include "plan/comm_plan.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <tuple>

#include "support/check.hpp"

namespace pushpart {

namespace {

using Volumes = std::array<std::array<std::int64_t, kNumProcs>, kNumProcs>;

std::uint8_t procBit(Proc p) {
  return static_cast<std::uint8_t>(1u << procSlot(p));
}

/// One axis of a grid as runs of identical lines: lines x .. end[x] − 1 are
/// all equal to line x, and owners[x] has procBit(p) set when p owns a cell
/// of line x.
struct Lines {
  std::vector<int> end;
  std::vector<std::uint8_t> owners;
};

struct Runs {
  Lines rows;
  Lines cols;
};

/// Reads every cell once: each row is compared with the next, and only the
/// first row of each run is scanned for its owners, for its column owners
/// and for where its owner changes from one column to the next.
Runs findRuns(const Partition& q) {
  const int n = q.n();
  const auto size = static_cast<std::size_t>(n);
  Runs runs;
  runs.rows.end.resize(size);
  runs.rows.owners.resize(size);
  runs.cols.end.resize(size);
  runs.cols.owners.assign(size, 0);
  // colStarts[j] != 0 when column j differs from column j − 1.
  std::vector<std::uint8_t> colStarts(size, 0);
  for (int s = 0; s < n;) {
    const Proc* row = q.row(s);
    int e = s + 1;
    while (e < n && std::memcmp(row, q.row(e), size) == 0) ++e;
    std::uint8_t owners = 0;
    for (std::size_t j = 0; j < size; ++j) {
      const std::uint8_t bit = procBit(row[j]);
      owners |= bit;
      runs.cols.owners[j] |= bit;
      if (j > 0 && row[j] != row[j - 1]) colStarts[j] = 1;
    }
    for (int x = s; x < e; ++x) {
      runs.rows.end[static_cast<std::size_t>(x)] = e;
      runs.rows.owners[static_cast<std::size_t>(x)] = owners;
    }
    s = e;
  }
  for (int j = n - 1, e = n; j >= 0; --j) {
    runs.cols.end[static_cast<std::size_t>(j)] = e;
    if (colStarts[static_cast<std::size_t>(j)] != 0) e = j;
  }
  return runs;
}

/// Appends pivot k's blocks of the A column (down) or of the B row: at each
/// run of identical lines, the owner of the run's cells on the pivot line
/// sends them to every other owner of those lines. A receiver whose last
/// block has the same sender and ends where the run starts grows that block
/// instead of opening one.
void appendLineBlocks(std::vector<BlockTransfer>& out, const Partition& q,
                      const Lines& lines, int k, bool down) {
  std::array<int, kNumProcs> open;  // index of each receiver's last block
  open.fill(-1);
  for (int x = 0; x < q.n();) {
    const auto slot = static_cast<std::size_t>(x);
    const int len = lines.end[slot] - x;
    const Proc owner = down ? q.at(x, k) : q.at(k, x);
    for (Proc r : kAllProcs) {
      int& last = open[procSlot(r)];
      if (r == owner || (lines.owners[slot] & procBit(r)) == 0) {
        last = -1;
      } else if (last >= 0 &&
                 out[static_cast<std::size_t>(last)].from == owner) {
        out[static_cast<std::size_t>(last)].count += len;
      } else {
        last = static_cast<int>(out.size());
        out.push_back(down ? BlockTransfer{x, k, owner, r, len}
                           : BlockTransfer{k, x, owner, r, len});
      }
    }
    x += len;
  }
}

std::vector<BlockTransfer> splitBlocks(const std::vector<BlockTransfer>& blocks,
                                       bool down) {
  std::vector<BlockTransfer> elements;
  for (const BlockTransfer& t : blocks)
    for (int e = 0; e < t.count; ++e)
      elements.push_back(down ? BlockTransfer{t.i + e, t.j, t.from, t.to}
                              : BlockTransfer{t.i, t.j + e, t.from, t.to});
  std::ranges::sort(elements, {}, [](const BlockTransfer& t) {
    return std::tuple(t.i, t.j, procSlot(t.to));
  });
  return elements;
}

}  // namespace

std::size_t PivotTransfers::size() const {
  std::int64_t elements = 0;
  for (const BlockTransfer& t : aColumn) elements += t.count;
  for (const BlockTransfer& t : bRow) elements += t.count;
  return static_cast<std::size_t>(elements);
}

std::vector<BlockTransfer> PivotTransfers::aElements() const {
  return splitBlocks(aColumn, true);
}

std::vector<BlockTransfer> PivotTransfers::bElements() const {
  return splitBlocks(bRow, false);
}

std::vector<PivotTransfers> buildElementPlanRange(const Partition& q,
                                                  int firstPivot) {
  requireThreeOwners(q);
  const int n = q.n();
  PUSHPART_CHECK_MSG(firstPivot >= 0 && firstPivot <= n,
                     "firstPivot " << firstPivot << " outside [0, " << n
                                   << "]");
  const Runs runs = findRuns(q);
  std::vector<PivotTransfers> plan(static_cast<std::size_t>(n - firstPivot));
  for (int k = firstPivot; k < n; ++k) {
    PivotTransfers& step = plan[static_cast<std::size_t>(k - firstPivot)];
    step.pivot = k;
    // A(i, k): needed by every processor computing C cells in row i.
    appendLineBlocks(step.aColumn, q, runs.rows, k, true);
    // B(k, j): needed by every processor computing C cells in column j.
    appendLineBlocks(step.bRow, q, runs.cols, k, false);
  }
  return plan;
}

std::vector<PivotTransfers> buildElementPlan(const Partition& q) {
  return buildElementPlanRange(q, 0);
}

Volumes planVolumes(std::span<const PivotTransfers> entries) {
  Volumes v{};
  for (const PivotTransfers& step : entries) {
    for (const BlockTransfer& t : step.aColumn)
      v[procSlot(t.from)][procSlot(t.to)] += t.count;
    for (const BlockTransfer& t : step.bRow)
      v[procSlot(t.from)][procSlot(t.to)] += t.count;
  }
  return v;
}

namespace {

/// Directed volumes the suffix [firstPivot, N) requires, recounted from the
/// cells (independently of any plan). The runs cut the grid into tiles of
/// identical cells; a tile's cells at the pivots k ≥ firstPivot of its
/// columns send their A element to the other owners of its rows, and those
/// at the pivots of its rows their B element to the other owners of its
/// columns.
Volumes rangeVolumes(const Partition& q, const Runs& runs, int firstPivot) {
  Volumes v{};
  const int n = q.n();
  for (int i = 0; i < n;) {
    const int iEnd = runs.rows.end[static_cast<std::size_t>(i)];
    const std::int64_t height = iEnd - i;
    const std::int64_t bPivots = std::max(0, iEnd - std::max(i, firstPivot));
    for (int j = 0; j < n;) {
      const int jEnd = runs.cols.end[static_cast<std::size_t>(j)];
      const std::int64_t width = jEnd - j;
      const std::int64_t aPivots = std::max(0, jEnd - std::max(j, firstPivot));
      const Proc owner = q.at(i, j);
      for (Proc r : kAllProcs) {
        if (r == owner) continue;
        std::int64_t& sent = v[procSlot(owner)][procSlot(r)];
        if (runs.rows.owners[static_cast<std::size_t>(i)] & procBit(r))
          sent += height * aPivots;
        if (runs.cols.owners[static_cast<std::size_t>(j)] & procBit(r))
          sent += bPivots * width;
      }
      j = jEnd;
    }
    i = iEnd;
  }
  return v;
}

}  // namespace

bool verifyElementPlanRange(const Partition& q,
                            const std::vector<PivotTransfers>& plan,
                            int firstPivot) {
  requireThreeOwners(q);
  const int n = q.n();
  if (firstPivot < 0 || firstPivot > n) return false;
  if (static_cast<int>(plan.size()) != n - firstPivot) return false;

  const Runs runs = findRuns(q);
  auto isProc = [](Proc p) { return procSlot(p) < kNumProcs; };
  Volumes got{};
  // The lines each block of one list delivers to its receiver.
  struct Span {
    std::size_t to;
    int first;
    int end;  ///< One past the block's last line.
    auto operator<=>(const Span&) const = default;
  };
  std::vector<Span> spans;

  // One list of pivot k's blocks: the A column (down = true: a block runs
  // down rows, and its j is the pivot) or the B row.
  auto listSound = [&](const std::vector<BlockTransfer>& blocks, int k,
                       bool down) {
    const Lines& lines = down ? runs.rows : runs.cols;
    spans.clear();
    for (const BlockTransfer& t : blocks) {
      // (1) Validity: the block lies on the pivot line and in the grid,
      // sender and receiver are processors, nobody is sent their own data.
      const int first = down ? t.i : t.j;
      if ((down ? t.j : t.i) != k) return false;
      if (first < 0 || first >= n || t.count < 1 || t.count > n - first)
        return false;
      if (!isProc(t.from) || !isProc(t.to) || t.to == t.from) return false;
      // The sender owns every cell of the block and the receiver needs
      // every line of it. Lines of one run are identical, so a check on the
      // first line of each run the block covers holds for all of its lines.
      for (int x = first; x < first + t.count;
           x = lines.end[static_cast<std::size_t>(x)]) {
        const Proc owner = down ? q.at(x, k) : q.at(k, x);
        if (owner != t.from) return false;
        if ((lines.owners[static_cast<std::size_t>(x)] & procBit(t.to)) == 0)
          return false;  // nobody needs it there
      }
      got[procSlot(t.from)][procSlot(t.to)] += t.count;
      spans.push_back({procSlot(t.to), first, first + t.count});
    }
    // (2) Uniqueness: no (line, receiver) slot is delivered twice, so one
    // receiver's blocks, sorted by first line, must not overlap.
    std::sort(spans.begin(), spans.end());
    for (std::size_t s = 1; s < spans.size(); ++s)
      if (spans[s].to == spans[s - 1].to && spans[s].first < spans[s - 1].end)
        return false;
    return true;
  };
  for (int k = firstPivot; k < n; ++k) {
    const PivotTransfers& step = plan[static_cast<std::size_t>(k - firstPivot)];
    if (step.pivot != k) return false;
    if (!listSound(step.aColumn, k, true)) return false;
    if (!listSound(step.bRow, k, false)) return false;
  }

  // (3) Completeness: valid + unique transfers are a subset of the needed
  // set, so matching the directed volumes of the pivot range exactly
  // implies equality.
  const Volumes want = rangeVolumes(q, runs, firstPivot);
  if (got != want) return false;
  if (firstPivot == 0) {
    // Full-range cross-check against the O(1)-maintained Eq. 1 volumes.
    if (want != pairVolumes(q)) return false;
  }
  return true;
}

bool verifyElementPlan(const Partition& q,
                       const std::vector<PivotTransfers>& plan) {
  return verifyElementPlanRange(q, plan, 0);
}

}  // namespace pushpart
