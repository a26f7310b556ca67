#include "verify/oracle.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <vector>

#include "shapes/candidates.hpp"
#include "support/check.hpp"

namespace pushpart {
namespace {

__extension__ using uint128 = unsigned __int128;

/// C(a, b) saturated at cap. Exact at every step (C(a,i+1) = C(a,i)·(a−i)/(i+1)),
/// monotone in i for b <= a/2, so the first step past cap settles the answer.
std::int64_t chooseCapped(std::int64_t a, std::int64_t b, std::int64_t cap) {
  if (b < 0 || b > a) return 0;
  b = std::min(b, a - b);
  uint128 result = 1;
  for (std::int64_t i = 0; i < b; ++i) {
    result = result * static_cast<uint128>(a - i) /
             static_cast<uint128>(i + 1);
    if (result > static_cast<uint128>(cap)) return cap;
  }
  return static_cast<std::int64_t>(result);
}

/// Branch-and-bound enumerator over every assignment with fixed counts.
///
/// Cells are assigned in row-major order; the per-line distinct-owner sums
/// only ever grow as cells are placed, and every still-empty line will end
/// with at least one owner, so
///   lb = N·(sumRow + zeroRows − n) + N·(sumCol + zeroCols − n)
/// is a valid lower bound on every completion of the current prefix.
class Enumerator {
 public:
  Enumerator(int n, std::array<std::int64_t, kNumProcs> counts,
             std::int64_t incumbentVoc)
      : n_(n),
        remaining_(counts),
        cells_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
               Proc::P),
        rowDistinct_(static_cast<std::size_t>(n), 0),
        colDistinct_(static_cast<std::size_t>(n), 0),
        zeroRows_(n),
        zeroCols_(n),
        bestVoc_(incumbentVoc) {
    for (auto& v : rowCnt_) v.assign(static_cast<std::size_t>(n), 0);
    for (auto& v : colCnt_) v.assign(static_cast<std::size_t>(n), 0);
  }

  void run() { dfs(0); }

  std::int64_t bestVoc() const { return bestVoc_; }
  bool improved() const { return !bestCells_.empty(); }
  const std::vector<Proc>& bestCells() const { return bestCells_; }
  std::int64_t leaves() const { return leaves_; }

 private:
  void place(int i, int j, Proc p) {
    const auto s = procSlot(p);
    if (rowCnt_[s][static_cast<std::size_t>(i)]++ == 0) {
      if (rowDistinct_[static_cast<std::size_t>(i)]++ == 0) --zeroRows_;
      ++sumRow_;
    }
    if (colCnt_[s][static_cast<std::size_t>(j)]++ == 0) {
      if (colDistinct_[static_cast<std::size_t>(j)]++ == 0) --zeroCols_;
      ++sumCol_;
    }
  }

  void unplace(int i, int j, Proc p) {
    const auto s = procSlot(p);
    if (--rowCnt_[s][static_cast<std::size_t>(i)] == 0) {
      if (--rowDistinct_[static_cast<std::size_t>(i)] == 0) ++zeroRows_;
      --sumRow_;
    }
    if (--colCnt_[s][static_cast<std::size_t>(j)] == 0) {
      if (--colDistinct_[static_cast<std::size_t>(j)] == 0) ++zeroCols_;
      --sumCol_;
    }
  }

  std::int64_t lowerBound() const {
    const std::int64_t rows = sumRow_ + zeroRows_ - n_;
    const std::int64_t cols = sumCol_ + zeroCols_ - n_;
    return static_cast<std::int64_t>(n_) * (rows + cols);
  }

  void dfs(std::size_t idx) {
    if (lowerBound() >= bestVoc_) return;
    if (idx == cells_.size()) {
      ++leaves_;
      const std::int64_t voc = lowerBound();  // zeroRows/zeroCols are 0 here.
      if (voc < bestVoc_) {
        bestVoc_ = voc;
        bestCells_ = cells_;
      }
      return;
    }
    const int i = static_cast<int>(idx) / n_;
    const int j = static_cast<int>(idx) % n_;
    for (Proc p : kAllProcs) {
      if (remaining_[procSlot(p)] == 0) continue;
      --remaining_[procSlot(p)];
      cells_[idx] = p;
      place(i, j, p);
      dfs(idx + 1);
      unplace(i, j, p);
      ++remaining_[procSlot(p)];
    }
  }

  int n_;
  std::array<std::int64_t, kNumProcs> remaining_;
  std::vector<Proc> cells_;
  std::array<std::vector<std::int32_t>, kNumProcs> rowCnt_, colCnt_;
  std::vector<std::int32_t> rowDistinct_, colDistinct_;
  std::int64_t sumRow_ = 0, sumCol_ = 0;
  int zeroRows_, zeroCols_;
  std::int64_t bestVoc_;
  std::vector<Proc> bestCells_;
  std::int64_t leaves_ = 0;
};

/// One member of the canonical rectangular family: `count` cells filled
/// row-major into an h×w box at (i0, j0) (last row possibly partial).
struct FamilyPlacement {
  int i0 = 0, j0 = 0, h = 0, w = 0;
  std::int64_t count = 0;
  /// Absolute per-row / per-column cell counts on the n×n grid.
  std::vector<std::int32_t> rowCells, colCells;

  Rect rect() const { return Rect{i0, i0 + h, j0, j0 + w}; }
};

std::vector<FamilyPlacement> familyPlacements(int n, std::int64_t count) {
  std::vector<FamilyPlacement> out;
  if (count == 0) {
    out.push_back(FamilyPlacement{
        0, 0, 0, 0, 0,
        std::vector<std::int32_t>(static_cast<std::size_t>(n), 0),
        std::vector<std::int32_t>(static_cast<std::size_t>(n), 0)});
    return out;
  }
  for (int w = 1; w <= n; ++w) {
    const auto h64 = ceilDiv(count, w);
    if (h64 > n) continue;
    const int h = static_cast<int>(h64);
    const auto fullRows = count / w;
    const auto rem = count % w;
    for (int i0 = 0; i0 + h <= n; ++i0) {
      for (int j0 = 0; j0 + w <= n; ++j0) {
        FamilyPlacement pl;
        pl.i0 = i0;
        pl.j0 = j0;
        pl.h = h;
        pl.w = w;
        pl.count = count;
        pl.rowCells.assign(static_cast<std::size_t>(n), 0);
        pl.colCells.assign(static_cast<std::size_t>(n), 0);
        for (int r = 0; r < h; ++r)
          pl.rowCells[static_cast<std::size_t>(i0 + r)] =
              r < fullRows ? w : static_cast<std::int32_t>(rem);
        for (int c = 0; c < w; ++c)
          pl.colCells[static_cast<std::size_t>(j0 + c)] =
              static_cast<std::int32_t>(fullRows + (c < rem ? 1 : 0));
        out.push_back(std::move(pl));
      }
    }
  }
  return out;
}

/// Best feasible canonical candidate by grid-measured VoC, as the exhaustive
/// tier's incumbent. Null when no candidate is feasible at this n.
struct Incumbent {
  std::int64_t voc = std::numeric_limits<std::int64_t>::max();
  bool found = false;
};
Incumbent candidateIncumbent(int n, const Ratio& ratio, Partition* best) {
  Incumbent inc;
  for (CandidateShape shape : kAllCandidates) {
    if (!candidateFeasible(shape, n, ratio)) continue;
    Partition q = makeCandidate(shape, n, ratio);
    const std::int64_t voc = q.volumeOfCommunication();
    if (voc < inc.voc) {
      inc.voc = voc;
      inc.found = true;
      if (best) *best = std::move(q);
    }
  }
  return inc;
}

}  // namespace

std::int64_t arrangementCountCapped(int n, const Ratio& ratio,
                                    std::int64_t cap) {
  PUSHPART_CHECK(cap > 0);
  const auto counts = ratio.elementCounts(n);
  const auto n2 = static_cast<std::int64_t>(n) * n;
  const std::int64_t cR = chooseCapped(n2, counts[procIndex(Proc::R)], cap);
  if (cR >= cap) return cap;
  const std::int64_t cS =
      chooseCapped(n2 - counts[procIndex(Proc::R)],
                   counts[procIndex(Proc::S)], cap);
  const uint128 product = static_cast<uint128>(cR) * static_cast<uint128>(cS);
  if (product > static_cast<uint128>(cap)) return cap;
  return static_cast<std::int64_t>(product);
}

SmallNOracleResult smallNOptimalVoc(int n, const Ratio& ratio,
                                    const SmallNOracleOptions& options) {
  if (n < 2)
    throw std::invalid_argument("smallNOptimalVoc: need n >= 2, got " +
                                std::to_string(n));
  PUSHPART_CHECK_MSG(ratio.valid(), "invalid ratio " << ratio.str());
  const auto counts = ratio.elementCounts(n);

  SmallNOracleResult result{Partition(n)};
  result.stateSpace =
      arrangementCountCapped(n, ratio, options.maxExhaustiveStates);

  Partition incumbentBest(n);
  const Incumbent incumbent = candidateIncumbent(n, ratio, &incumbentBest);

  if (result.stateSpace < options.maxExhaustiveStates) {
    result.tier = SmallNOracleTier::kExhaustive;
    Enumerator search(n, counts, incumbent.voc);
    search.run();
    result.statesVisited = search.leaves();
    if (search.improved()) {
      result.minVoc = search.bestVoc();
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
          result.best.set(
              i, j,
              search.bestCells()[static_cast<std::size_t>(i) *
                                     static_cast<std::size_t>(n) +
                                 static_cast<std::size_t>(j)]);
    } else {
      // No arrangement beat the incumbent — the best candidate IS optimal.
      PUSHPART_CHECK_MSG(incumbent.found,
                         "exhaustive enumeration found no arrangement for n="
                             << n << " ratio=" << ratio.str());
      result.minVoc = incumbent.voc;
      result.best = std::move(incumbentBest);
    }
    return result;
  }

  // Family tier: minimise over all disjoint row-major rectangle placements
  // of R and S, seeded with the canonical candidates (whose ragged edges can
  // differ slightly from the row-major fill).
  result.tier = SmallNOracleTier::kFamily;
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  if (incumbent.found) {
    best = incumbent.voc;
    result.best = incumbentBest;
  }

  const auto rPlacements = familyPlacements(n, counts[procIndex(Proc::R)]);
  const auto sPlacements = familyPlacements(n, counts[procIndex(Proc::S)]);
  const FamilyPlacement* bestR = nullptr;
  const FamilyPlacement* bestS = nullptr;
  const auto nTotal = static_cast<std::int64_t>(n);
  for (const auto& r : rPlacements) {
    for (const auto& s : sPlacements) {
      if (r.rect().overlaps(s.rect())) continue;
      ++result.statesVisited;
      std::int64_t sumRow = 0, sumCol = 0;
      for (int line = 0; line < n; ++line) {
        const auto li = static_cast<std::size_t>(line);
        sumRow += (r.rowCells[li] > 0) + (s.rowCells[li] > 0) +
                  (r.rowCells[li] + s.rowCells[li] < n);
        sumCol += (r.colCells[li] > 0) + (s.colCells[li] > 0) +
                  (r.colCells[li] + s.colCells[li] < n);
      }
      const std::int64_t voc = nTotal * (sumRow - n + sumCol - n);
      if (voc < best) {
        best = voc;
        bestR = &r;
        bestS = &s;
      }
    }
  }
  PUSHPART_CHECK_MSG(best < std::numeric_limits<std::int64_t>::max(),
                     "family enumeration found no placement for n="
                         << n << " ratio=" << ratio.str());
  if (bestR != nullptr) {
    Partition q(n);  // all-P fill; each placement claims its box row-major
    q.claim(bestR->rect(), Proc::P, Proc::R, bestR->count);
    q.claim(bestS->rect(), Proc::P, Proc::S, bestS->count);
    PUSHPART_CHECK_MSG(q.volumeOfCommunication() == best,
                       "family VoC mismatch: table " << best << " vs grid "
                           << q.volumeOfCommunication());
    result.best = std::move(q);
  }
  result.minVoc = best;
  return result;
}

}  // namespace pushpart
