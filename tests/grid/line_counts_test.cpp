#include "grid/line_counts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "grid/metrics.hpp"
#include "model/models.hpp"
#include "shapes/candidates.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "../support/line_runs.hpp"

namespace pushpart {
namespace {

struct OwnedRect {
  Proc owner;
  Rect rect;
};

Partition paint(int n, const std::vector<OwnedRect>& rects) {
  Partition q(n);
  for (const auto& [owner, r] : rects)
    for (int i = r.rowBegin; i < r.rowEnd; ++i)
      for (int j = r.colBegin; j < r.colEnd; ++j) q.set(i, j, owner);
  return q;
}

/// A LineCounts built from `rects` must describe the painted grid: run by
/// run and line by line, in its metrics, and in every model bit for bit.
void expectLinesMatchPainted(int n, const std::vector<OwnedRect>& rects,
                             const Ratio& ratio) {
  LineCounts lines(n);
  for (const auto& [owner, r] : rects) lines.assign(r, owner);
  const Partition q = paint(n, rects);

  expectRunsMatchGrid(lines, q);
  const std::size_t maxRuns = 2 * rects.size() + 1;
  EXPECT_LE(lines.runs(Axis::kRows).size(), maxRuns);
  EXPECT_LE(lines.runs(Axis::kCols).size(), maxRuns);
  EXPECT_EQ(pairVolumes(lines), pairVolumes(q));
  for (Proc x : kAllProcs)
    EXPECT_EQ(overlapElements(lines, x), overlapElements(q, x))
        << procName(x);

  Machine machine;
  machine.ratio = ratio;
  std::vector<std::pair<Topology, StarConfig>> topologies = {
      {Topology::kFullyConnected, StarConfig{}}};
  for (Proc hub : kAllProcs)
    topologies.push_back({Topology::kStar, StarConfig{hub}});
  for (Algo algo : kAllAlgos)
    for (const auto& [topology, star] : topologies)
      EXPECT_TRUE(evalModel(algo, lines, machine, topology, star) ==
                  evalModel(algo, q, machine, topology, star))
          << algoName(algo) << " " << topologyName(topology) << " hub "
          << procName(star.hub);
}

/// One random rectangle inside the n×n grid, drawn to hit the cases run
/// splitting must get right: the first and last row and column, one-line,
/// full-width and full-height rectangles, and rectangles that share an edge
/// with one already placed.
Rect randomRect(Rng& rng, int n, const std::vector<OwnedRect>& placed) {
  const auto span = [&](int& begin, int& end) {
    begin = static_cast<int>(rng.range(0, n - 1));
    end = static_cast<int>(rng.range(begin + 1, n));
  };
  Rect r;
  span(r.rowBegin, r.rowEnd);
  span(r.colBegin, r.colEnd);
  switch (rng.below(7)) {
    case 0: r.rowEnd = r.rowBegin + 1; break;  // one row
    case 1: r.colEnd = r.colBegin + 1; break;  // one column
    case 2: r.colBegin = 0, r.colEnd = n; break;  // full width
    case 3: r.rowBegin = 0, r.rowEnd = n; break;  // full height
    case 4: {  // on the grid's border
      if (rng.chance(0.5)) r.rowBegin = 0; else r.rowEnd = n;
      if (rng.chance(0.5)) r.colBegin = 0; else r.colEnd = n;
      break;
    }
    case 5: {  // below or right of a placed rectangle, sharing its edge
      if (placed.empty()) break;
      const Rect& e = placed[rng.below(placed.size())].rect;
      if (rng.chance(0.5) && e.rowEnd < n) {
        r.rowBegin = e.rowEnd;
        r.rowEnd = static_cast<int>(rng.range(r.rowBegin + 1, n));
        r.colBegin = e.colBegin, r.colEnd = e.colEnd;
      } else if (e.colEnd < n) {
        r.colBegin = e.colEnd;
        r.colEnd = static_cast<int>(rng.range(r.colBegin + 1, n));
        r.rowBegin = e.rowBegin, r.rowEnd = e.rowEnd;
      }
      break;
    }
    default: break;
  }
  return r;
}

TEST(LineCountsTest, ArbitraryRectanglesCountLikeThePaintedGrid) {
  Rng rng(20260419);
  int checked = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto n = static_cast<int>(rng.range(1, 64));
    const auto want = static_cast<std::size_t>(rng.range(1, 6));
    std::vector<OwnedRect> rects;
    for (int attempt = 0; attempt < 60 && rects.size() < want; ++attempt) {
      const Rect r = randomRect(rng, n, rects);
      bool free = true;
      for (const OwnedRect& o : rects) free = free && !o.rect.overlaps(r);
      if (free) rects.push_back({rng.chance(0.5) ? Proc::R : Proc::S, r});
    }
    const double p = 1.0 + 9.0 * rng.real();
    const Ratio ratio{p, 1.0 + (p - 1.0) * rng.real(), 1.0};
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                 std::to_string(n) + " rects=" +
                 std::to_string(rects.size()));
    expectLinesMatchPainted(n, rects, ratio);
    if (HasFailure()) return;
    checked += static_cast<int>(rects.size());
  }
  EXPECT_GT(checked, 6000);
}

TEST(LineCountsTest, EdgeSharingRectanglesOnEveryBorder) {
  // Four rectangles around a P core, each on one border of the grid and
  // sharing an edge with the next: every axis is cut next to line 0 and
  // line n − 1.
  const int n = 8;
  const std::vector<OwnedRect> rects = {
      {Proc::R, Rect{0, 8, 0, 3}},  // full height on column 0
      {Proc::S, Rect{0, 1, 3, 8}},  // one row on row 0
      {Proc::R, Rect{7, 8, 3, 8}},  // one row on row n − 1
      {Proc::S, Rect{1, 7, 7, 8}},  // one column on column n − 1
  };
  expectLinesMatchPainted(n, rects, Ratio{5, 2, 1});
}

TEST(LineCountsTest, WholeGridStaysOneRun) {
  const int n = 5;
  LineCounts lines(n);
  lines.assign(Rect{0, n, 0, n}, Proc::S);
  ASSERT_EQ(lines.runs(Axis::kRows).size(), 1U);
  ASSERT_EQ(lines.runs(Axis::kCols).size(), 1U);
  EXPECT_EQ(lines.runs(Axis::kRows)[0].count[procSlot(Proc::S)], n);
  EXPECT_EQ(lines.count(Proc::P), 0);
  EXPECT_EQ(lines.volumeOfCommunication(), 0);
}

TEST(LineCountsTest, RelabeledMatchesThePaintedGridRelabeledCellByCell) {
  const int n = 30;
  const Ratio ratio{5, 2, 1};
  std::array<Proc, kNumProcs> label = kAllProcs;  // R, S, P: sorted
  int permutations = 0;
  do {
    for (CandidateShape shape : kAllCandidates) {
      if (!candidateFeasible(shape, n, ratio)) continue;
      const Partition painted = makeCandidate(shape, n, ratio);
      Partition want(n);
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
          want.set(i, j, label[procSlot(painted.at(i, j))]);
      SCOPED_TRACE(std::string(candidateName(shape)) + " as " +
                   procName(label[0]) + procName(label[1]) +
                   procName(label[2]));
      expectRunsMatchGrid(candidateLines(shape, n, ratio).relabeled(label),
                          want);
    }
    ++permutations;
  } while (std::next_permutation(label.begin(), label.end()));
  EXPECT_EQ(permutations, 6);
  EXPECT_THROW(LineCounts(n).relabeled({Proc::P, Proc::P, Proc::S}),
               CheckError);
}

TEST(LineCountsTest, RectangleOutsideTheGridThrows) {
  const int n = 6;
  LineCounts lines(n);
  EXPECT_THROW(lines.assign(Rect{-1, 1, 0, 1}, Proc::R), CheckError);
  EXPECT_THROW(lines.assign(Rect{n - 1, n + 1, 0, 1}, Proc::R), CheckError);
  EXPECT_THROW(lines.assign(Rect{0, 1, -1, 1}, Proc::R), CheckError);
  EXPECT_THROW(lines.assign(Rect{0, 1, n - 1, n + 1}, Proc::R), CheckError);
  // A refused rectangle changes nothing.
  EXPECT_EQ(lines.runs(Axis::kRows).size(), 1U);
  EXPECT_EQ(lines.runs(Axis::kCols).size(), 1U);
  EXPECT_EQ(lines.count(Proc::P), static_cast<std::int64_t>(n) * n);
  EXPECT_THROW(LineCounts(0), CheckError);
}

}  // namespace
}  // namespace pushpart
