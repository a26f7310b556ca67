#include "grid/metrics.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "grid/builder.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

using PairMatrix = std::array<std::array<std::int64_t, kNumProcs>, kNumProcs>;

// Which owners appear in each row and column, read cell by cell without
// touching the partition's incremental counters.
struct LineOwners {
  std::vector<std::array<bool, kNumProcs>> row;
  std::vector<std::array<bool, kNumProcs>> col;
};

LineOwners lineOwners(const Partition& q) {
  const auto n = static_cast<std::size_t>(q.n());
  LineOwners lines{std::vector<std::array<bool, kNumProcs>>(n),
                   std::vector<std::array<bool, kNumProcs>>(n)};
  for (int i = 0; i < q.n(); ++i)
    for (int j = 0; j < q.n(); ++j) {
      const std::size_t x = procSlot(q.at(i, j));
      lines.row[static_cast<std::size_t>(i)][x] = true;
      lines.col[static_cast<std::size_t>(j)][x] = true;
    }
  return lines;
}

// pairVolumes by its definition: each cell (i, j) of s goes to r once for
// row i and once more for column j, whenever r owns a cell in that line.
PairMatrix pairVolumesFromCells(const Partition& q) {
  const LineOwners lines = lineOwners(q);
  PairMatrix v{};
  for (int i = 0; i < q.n(); ++i)
    for (int j = 0; j < q.n(); ++j) {
      const Proc s = q.at(i, j);
      for (Proc r : kAllProcs) {
        if (r == s) continue;
        v[procSlot(s)][procSlot(r)] +=
            (lines.row[static_cast<std::size_t>(i)][procSlot(r)] ? 1 : 0) +
            (lines.col[static_cast<std::size_t>(j)][procSlot(r)] ? 1 : 0);
      }
    }
  return v;
}

// Cells (i, j) whose whole row i and whole column j belong to x.
std::int64_t overlapFromCells(const Partition& q, Proc x) {
  const int n = q.n();
  const auto lineIsX = [&](int line, bool isRow) {
    for (int t = 0; t < n; ++t)
      if ((isRow ? q.at(line, t) : q.at(t, line)) != x) return false;
    return true;
  };
  std::int64_t cells = 0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (lineIsX(i, true) && lineIsX(j, false)) ++cells;
  return cells;
}

std::int64_t sendVolume(const PairMatrix& v, Proc s) {
  std::int64_t total = 0;
  for (std::int64_t x : v[procSlot(s)]) total += x;
  return total;
}

TEST(SendVolumeTest, UniformGridSendsNothing) {
  Partition q(5);
  const PairMatrix v = pairVolumes(q);
  for (Proc s : kAllProcs) EXPECT_EQ(sendVolume(v, s), 0) << procName(s);
  EXPECT_EQ(q.count(Proc::R), 0);
  EXPECT_EQ(q.rowsUsed(Proc::R), 0);
  EXPECT_EQ(q.count(Proc::P), 25);
  EXPECT_EQ(q.rowsUsed(Proc::P), 5);
  EXPECT_EQ(q.colsUsed(Proc::P), 5);
}

TEST(SendVolumeTest, SingleCellProcessor) {
  Partition q(5);
  q.set(2, 3, Proc::R);
  const PairMatrix v = pairVolumes(q);
  EXPECT_EQ(q.rowsUsed(Proc::R), 1);
  EXPECT_EQ(q.colsUsed(Proc::R), 1);
  // R's one cell goes to P twice: P owns cells in row 2 and in column 3.
  EXPECT_EQ(v[procSlot(Proc::R)][procSlot(Proc::P)], 2);
  // P sends the other four cells of row 2 and of column 3 to R.
  EXPECT_EQ(v[procSlot(Proc::P)][procSlot(Proc::R)], 8);
  EXPECT_EQ(sendVolume(v, Proc::S), 0);
  EXPECT_EQ(q.volumeOfCommunication(), 10);
}

TEST(SendVolumeTest, RectangularBlock) {
  // R owns rows 0..1 x cols 0..2 of a 6x6 grid; P owns the rest.
  Partition q(6);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j) q.set(i, j, Proc::R);
  const PairMatrix v = pairVolumes(q);
  EXPECT_EQ(q.rowsUsed(Proc::R), 2);
  EXPECT_EQ(q.colsUsed(Proc::R), 3);
  // Rows 0..1 and columns 0..2 all hold P cells, so each of R's six cells
  // travels to P twice.
  EXPECT_EQ(v[procSlot(Proc::R)][procSlot(Proc::P)], 6 * 2);
  // P's three cells in each of rows 0..1, and four in each of columns 0..2.
  EXPECT_EQ(v[procSlot(Proc::P)][procSlot(Proc::R)], 2 * 3 + 3 * 4);
  EXPECT_EQ(q.volumeOfCommunication(), 12 + 18);
}

TEST(SendVolumeTest, IndexedByProcSlot) {
  Partition q(4);
  q.set(0, 0, Proc::R);
  q.set(3, 3, Proc::S);
  const PairMatrix v = pairVolumes(q);
  EXPECT_EQ(v[procSlot(Proc::R)][procSlot(Proc::P)], 2);
  EXPECT_EQ(v[procSlot(Proc::S)][procSlot(Proc::P)], 2);
  EXPECT_EQ(v[procSlot(Proc::P)][procSlot(Proc::R)], 6);
  EXPECT_EQ(v[procSlot(Proc::P)][procSlot(Proc::S)], 6);
  // R and S share no line, so they exchange nothing.
  EXPECT_EQ(v[procSlot(Proc::R)][procSlot(Proc::S)], 0);
  EXPECT_EQ(v[procSlot(Proc::S)][procSlot(Proc::R)], 0);
  EXPECT_EQ(q.count(Proc::P), 14);
}

TEST(SendVolumeTest, MatchesTheCellDefinition) {
  Rng rng(8);
  for (int trial = 0; trial < 6; ++trial) {
    const Ratio ratio = trial % 2 == 0 ? Ratio{4, 2, 1} : Ratio{10, 1, 1};
    const Partition q = trial < 3 ? randomPartition(30, ratio, rng)
                                  : randomClusteredPartition(30, ratio, rng);
    EXPECT_EQ(pairVolumes(q), pairVolumesFromCells(q)) << "trial " << trial;
  }
}

TEST(VoCTest, MatchesEq1CountedFromCells) {
  Rng rng(9);
  for (int trial = 0; trial < 6; ++trial) {
    const Partition q = trial < 3
                            ? randomPartition(30, Ratio{4, 2, 1}, rng)
                            : randomClusteredPartition(30, Ratio{3, 2, 1}, rng);
    const LineOwners lines = lineOwners(q);
    const auto owners = [](const std::array<bool, kNumProcs>& line) {
      std::int64_t c = 0;
      for (bool has : line) c += has ? 1 : 0;
      return c;
    };
    std::int64_t voc = 0;
    for (std::size_t k = 0; k < lines.row.size(); ++k)
      voc += q.n() * (owners(lines.row[k]) - 1) +
             q.n() * (owners(lines.col[k]) - 1);
    EXPECT_EQ(q.volumeOfCommunication(), voc) << "trial " << trial;
  }
}

TEST(VoCTest, ColumnStripesPartition) {
  // Vertical stripes: P | R | S, each 2 columns of a 6x6 grid.
  Partition q(6);
  for (int i = 0; i < 6; ++i) {
    q.set(i, 2, Proc::R);
    q.set(i, 3, Proc::R);
    q.set(i, 4, Proc::S);
    q.set(i, 5, Proc::S);
  }
  // Every row has 3 owners: Σ_i N(c_i−1) = 6·6·2 = 72.
  // Every column has 1 owner: 0.
  EXPECT_EQ(q.volumeOfCommunication(), 72);
}

TEST(OverlapTest, FullyOwnedGridOverlapsEverything) {
  Partition q(4);  // all P
  EXPECT_EQ(overlapElements(q, Proc::P), 16);
  EXPECT_EQ(overlapElements(q, Proc::R), 0);
}

TEST(OverlapTest, StripesGiveNoFullyLocalElements) {
  // Column stripes: no processor owns a full row, so nobody can compute any
  // C element entirely locally.
  Partition q(6);
  for (int i = 0; i < 6; ++i)
    for (int j = 3; j < 6; ++j) q.set(i, j, Proc::R);
  EXPECT_EQ(overlapElements(q, Proc::P), 0);
  EXPECT_EQ(overlapElements(q, Proc::R), 0);
}

TEST(OverlapTest, HorizontalBandIsFullyLocalInsideItself) {
  // R owns full rows 0..2 of an 8x8 grid. For C(i,j) with i<3, pivot row i is
  // fully R's, but pivot column j is mixed → not fully local.
  Partition q(8);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 8; ++j) q.set(i, j, Proc::R);
  EXPECT_EQ(overlapElements(q, Proc::R), 0);
}

TEST(OverlapTest, SquareCornerOverlapCounts) {
  // S owns the 2x2 bottom-right corner of a 4x4 grid; P the rest. P fully
  // owns rows 0..1 and columns 0..1, so the four cells where they cross are
  // local; S owns no full line.
  Partition q(4);
  for (int i = 2; i < 4; ++i)
    for (int j = 2; j < 4; ++j) q.set(i, j, Proc::S);
  EXPECT_EQ(overlapElements(q, Proc::P), 4);
  EXPECT_EQ(overlapElements(q, Proc::S), 0);
  EXPECT_EQ(overlapElements(q, Proc::R), 0);
}

TEST(OverlapTest, MatchesTheFullLineDefinition) {
  // Random partitions with whole rows and columns repainted, so owners hold
  // full lines that cross.
  Rng rng(14);
  constexpr int n = 12;
  int nonZero = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Partition q = randomPartition(n, Ratio{4, 2, 1}, rng);
    for (int paint = 0; paint < 6; ++paint) {
      const Proc x =
          kAllProcs[static_cast<std::size_t>(rng.below(kAllProcs.size()))];
      const int k =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      const bool row = rng.chance(0.5);
      for (int t = 0; t < n; ++t) {
        if (row) {
          q.set(k, t, x);
        } else {
          q.set(t, k, x);
        }
      }
    }
    for (Proc x : kAllProcs) {
      const std::int64_t local = overlapElements(q, x);
      EXPECT_EQ(local, overlapFromCells(q, x))
          << "trial " << trial << " " << procName(x);
      EXPECT_LE(local, q.count(x));
      nonZero += local > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(nonZero, 0);
}

}  // namespace
}  // namespace pushpart
