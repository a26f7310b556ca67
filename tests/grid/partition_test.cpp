#include "grid/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exec/kij_executor.hpp"
#include "grid/bit_partition.hpp"
#include "grid/builder.hpp"
#include "grid/metrics.hpp"
#include "grid/serialize.hpp"
#include "model/models.hpp"
#include "plan/comm_plan.hpp"
#include "shapes/archetype.hpp"
#include "sim/mmm_sim.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

TEST(PartitionTest, FreshGridIsAllFillProcessor) {
  Partition q(4);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) EXPECT_EQ(q.at(i, j), Proc::P);
  EXPECT_EQ(q.count(Proc::P), 16);
  EXPECT_EQ(q.count(Proc::R), 0);
  EXPECT_EQ(q.count(Proc::S), 0);
}

TEST(PartitionTest, UniformGridHasZeroVoC) {
  Partition q(8);
  EXPECT_EQ(q.volumeOfCommunication(), 0);
}

TEST(PartitionTest, SetUpdatesCountsIncrementally) {
  Partition q(4);
  q.set(1, 2, Proc::R);
  EXPECT_EQ(q.at(1, 2), Proc::R);
  EXPECT_EQ(q.count(Proc::R), 1);
  EXPECT_EQ(q.count(Proc::P), 15);
  EXPECT_EQ(q.rowCount(Proc::R, 1), 1);
  EXPECT_EQ(q.colCount(Proc::R, 2), 1);
  EXPECT_EQ(q.rowsUsed(Proc::R), 1);
  EXPECT_EQ(q.colsUsed(Proc::R), 1);
  EXPECT_EQ(q.procsInRow(1), 2);
  EXPECT_EQ(q.procsInCol(2), 2);
  EXPECT_EQ(q.procsInRow(0), 1);
}

TEST(PartitionTest, SetSameOwnerIsNoOp) {
  Partition q(4);
  q.set(0, 0, Proc::P);
  EXPECT_EQ(q.count(Proc::P), 16);
  q.validateCounters();
}

TEST(PartitionTest, VoCSingleForeignCell) {
  // One R cell in a 4x4 P grid: row 1 and col 2 each have 2 owners.
  // VoC = N(2-1) + N(2-1) = 4 + 4 = 8.
  Partition q(4);
  q.set(1, 2, Proc::R);
  EXPECT_EQ(q.volumeOfCommunication(), 8);
}

TEST(PartitionTest, VoCMatchesPaperFormulaOnRandomGrids) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const auto q = randomPartition(16, Ratio{3, 2, 1}, rng);
    // Recompute Eq. 1 from scratch.
    std::int64_t voc = 0;
    for (int i = 0; i < q.n(); ++i) voc += q.n() * (q.procsInRow(i) - 1);
    for (int j = 0; j < q.n(); ++j) voc += q.n() * (q.procsInCol(j) - 1);
    EXPECT_EQ(q.volumeOfCommunication(), voc);
  }
}

TEST(PartitionTest, SwapCellsExchangesOwners) {
  Partition q(4);
  q.set(0, 0, Proc::R);
  q.set(3, 3, Proc::S);
  q.swapCells(0, 0, 3, 3);
  EXPECT_EQ(q.at(0, 0), Proc::S);
  EXPECT_EQ(q.at(3, 3), Proc::R);
  q.validateCounters();
}

TEST(PartitionTest, EnclosingRectTracksElements) {
  Partition q(8);
  EXPECT_TRUE(q.enclosingRect(Proc::R).isEmpty());
  q.set(2, 3, Proc::R);
  q.set(5, 6, Proc::R);
  const Rect r = q.enclosingRect(Proc::R);
  EXPECT_EQ(r, (Rect{2, 6, 3, 7}));
  // P's rectangle is still the whole grid.
  EXPECT_EQ(q.enclosingRect(Proc::P), (Rect{0, 8, 0, 8}));
}

TEST(PartitionTest, EnclosingRectShrinksWhenElementRemoved) {
  Partition q(8);
  q.set(2, 3, Proc::R);
  q.set(5, 6, Proc::R);
  q.set(5, 6, Proc::P);  // take it back
  EXPECT_EQ(q.enclosingRect(Proc::R), (Rect{2, 3, 3, 4}));
}

TEST(PartitionTest, HashDiffersForDifferentGrids) {
  Partition a(6), b(6);
  b.set(0, 0, Proc::R);
  EXPECT_NE(a.hash(), b.hash());
  Partition c(6);
  EXPECT_EQ(a.hash(), c.hash());
}

TEST(PartitionTest, EqualityComparesCells) {
  Partition a(5), b(5);
  EXPECT_EQ(a, b);
  b.set(2, 2, Proc::S);
  EXPECT_FALSE(a == b);
}

TEST(PartitionTest, OutOfRangeSetThrows) {
  Partition q(4);
  EXPECT_THROW(q.set(-1, 0, Proc::R), CheckError);
  EXPECT_THROW(q.set(0, 4, Proc::R), CheckError);
  EXPECT_THROW(q.set(4, 0, Proc::R), CheckError);
}

TEST(PartitionTest, NonPositiveSizeThrows) {
  EXPECT_THROW(Partition(0), CheckError);
  EXPECT_THROW(Partition(-3), CheckError);
}

TEST(PartitionTest, ValidateCountersPassesAfterRandomMutation) {
  Rng rng(77);
  Partition q(20);
  for (int step = 0; step < 5000; ++step) {
    const int i = static_cast<int>(rng.below(20));
    const int j = static_cast<int>(rng.below(20));
    const Proc p = procFromIndex(static_cast<int>(rng.below(3)));
    q.set(i, j, p);
  }
  q.validateCounters();
}

// --- claim: the one way builders hand cells to an owner ------------------

/// The cells of `box` in the order `order` names, spelled out as nested
/// loops: the claim reference.
std::vector<std::pair<int, int>> visitOrder(const Rect& box,
                                            ClaimOrder order) {
  std::vector<int> rows, cols;
  for (int i = box.rowBegin; i < box.rowEnd; ++i) rows.push_back(i);
  for (int j = box.colBegin; j < box.colEnd; ++j) cols.push_back(j);
  std::vector<int>& lines = order.columns ? cols : rows;
  std::vector<int>& cells = order.columns ? rows : cols;
  if (order.reverseLines) std::reverse(lines.begin(), lines.end());
  if (order.reverseCells) std::reverse(cells.begin(), cells.end());
  std::vector<std::pair<int, int>> out;
  for (const int line : lines)
    for (const int cell : cells)
      out.emplace_back(order.columns ? cell : line,
                       order.columns ? line : cell);
  return out;
}

std::vector<ClaimOrder> allClaimOrders() {
  std::vector<ClaimOrder> out;
  for (const bool columns : {false, true})
    for (const bool reverseLines : {false, true})
      for (const bool reverseCells : {false, true})
        out.push_back({columns, reverseLines, reverseCells});
  return out;
}

TEST(PartitionClaimTest, VisitsEachOrderCellByCell) {
  const Rect box{1, 4, 2, 6};
  for (const ClaimOrder order : allClaimOrders()) {
    const std::string name = std::string(order.columns ? "columns" : "rows") +
                             (order.reverseLines ? " reverseLines" : "") +
                             (order.reverseCells ? " reverseCells" : "");
    Partition q(7);
    for (const auto& [i, j] : visitOrder(box, order)) {
      ASSERT_EQ(q.claim(box, Proc::P, Proc::R, 1, order), 1) << name;
      EXPECT_EQ(q.at(i, j), Proc::R) << name << " at (" << i << "," << j << ")";
      q.validateCounters();
    }
    EXPECT_EQ(q.count(Proc::R), box.area()) << name;
    EXPECT_EQ(q.claim(box, Proc::P, Proc::R, 1, order), 0) << name;
  }
}

TEST(PartitionClaimTest, ColumnsFromTheRightEdgeBottomUp) {
  Partition q(3);
  const ClaimOrder order{
      .columns = true, .reverseLines = true, .reverseCells = true};
  EXPECT_EQ(q.claim(Rect{1, 3, 0, 2}, Proc::P, Proc::S, 3, order), 3);
  q.validateCounters();
  // Column 1 bottom-up, then column 0 from the bottom.
  EXPECT_EQ(toAscii(q), "PPP\n"
                        "PSP\n"
                        "SSP");
}

TEST(PartitionClaimTest, SkipsCellsFromDoesNotOwn) {
  Partition q = fromAscii(R"(PPPP
                             PSPP
                             PPSP
                             PPPP)");
  const Rect box{0, 3, 0, 3};
  EXPECT_EQ(q.claim(box, Proc::P, Proc::R, 100), 7);
  q.validateCounters();
  EXPECT_EQ(toAscii(q), "RRRP\n"
                        "RSRP\n"
                        "RRSP\n"
                        "PPPP");
  // The S cells are no P cells to claim, so a second pass moves nothing.
  EXPECT_EQ(q.claim(box, Proc::P, Proc::R, 100), 0);
  // And claiming from S takes exactly those two.
  EXPECT_EQ(q.claim(box, Proc::S, Proc::R, 100), 2);
  q.validateCounters();
}

TEST(PartitionClaimTest, StopsAtCountAndReportsShortfall) {
  Partition q(5);
  const Rect box{0, 3, 0, 3};
  EXPECT_EQ(q.claim(box, Proc::P, Proc::R, 0), 0);
  EXPECT_EQ(q.claim(box, Proc::P, Proc::R, 5), 5);
  EXPECT_EQ(q.count(Proc::R), 5);
  q.validateCounters();
  // Four P cells are left in the box: a claim of ten moves four.
  EXPECT_EQ(q.claim(box, Proc::P, Proc::S, 10), 4);
  EXPECT_EQ(q.count(Proc::S), 4);
  q.validateCounters();
  // An empty box moves nothing.
  EXPECT_EQ(q.claim(Rect::empty(), Proc::P, Proc::R, 3), 0);
  EXPECT_EQ(q.claim(Rect{2, 2, 0, 5}, Proc::P, Proc::R, 3), 0);
  EXPECT_EQ(q.count(Proc::R), 5);
  q.validateCounters();
}

TEST(PartitionClaimTest, RefusesBoxesOffTheGridAndBadOwners) {
  Partition q(4);
  EXPECT_THROW(q.claim(Rect{0, 5, 0, 4}, Proc::P, Proc::R, 1), CheckError);
  EXPECT_THROW(q.claim(Rect{-1, 2, 0, 2}, Proc::P, Proc::R, 1), CheckError);
  EXPECT_THROW(q.claim(Rect{0, 2, 3, 5}, Proc::P, Proc::R, 1), CheckError);
  EXPECT_THROW(q.claim(Rect{0, 4, 0, 4}, Proc::P, procFromIndex(3), 1),
               CheckError);
  EXPECT_THROW(q.claim(Rect{0, 4, 0, 4}, procFromIndex(5), Proc::R, 1),
               CheckError);
  EXPECT_THROW(q.claim(Rect{0, 4, 0, 4}, Proc::P, Proc::P, 1), CheckError);
  // A refused claim moves nothing.
  EXPECT_EQ(q.count(Proc::P), 16);
  q.validateCounters();
}

TEST(PartitionClaimTest, ClaimsAmongKOwners) {
  Partition q(6, 5);
  const Proc fastest = q.fastest();
  for (int x = 0; x < 4; ++x)
    EXPECT_EQ(q.claim(Rect{0, 6, 0, 6}, fastest, procFromIndex(x), 7,
                      {.reverseLines = x % 2 == 1}),
              7);
  q.validateCounters();
  for (int x = 0; x < 4; ++x) EXPECT_EQ(q.count(procFromIndex(x)), 7);
  EXPECT_EQ(q.count(fastest), 36 - 28);
  EXPECT_THROW(q.claim(Rect{0, 6, 0, 6}, fastest, procFromIndex(5), 1),
               CheckError);
}

// Parameterised sweep: VoC and rectangles stay consistent across sizes.
class PartitionSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSizeTest, CheckerboardCountsAreExact) {
  const int n = GetParam();
  Partition q(n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if ((i + j) % 2 == 0) q.set(i, j, Proc::R);
  q.validateCounters();
  // Every row and column holds both P and R: c_i = c_j = 2 everywhere.
  EXPECT_EQ(q.volumeOfCommunication(),
            2LL * n * n);  // N·(2N - N)·2 halves = 2N²
  EXPECT_EQ(q.count(Proc::R) + q.count(Proc::P), static_cast<std::int64_t>(n) * n);
  EXPECT_EQ(q.enclosingRect(Proc::R), (Rect{0, n, 0, n}));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PartitionSizeTest,
                         ::testing::Values(2, 3, 4, 7, 16, 33, 64));

// --- k owners (paper §XI): ids 0..k−2 slow by speed, k−1 the fastest -------

TEST(OwnerIdTest, RankMapsToOwnerId) {
  EXPECT_EQ(ownerOfRank(0, 3), Proc::P);
  EXPECT_EQ(ownerOfRank(1, 3), Proc::R);
  EXPECT_EQ(ownerOfRank(2, 3), Proc::S);
  EXPECT_EQ(ownerOfRank(0, 5), procFromIndex(4));
  EXPECT_EQ(ownerOfRank(1, 5), procFromIndex(0));
  EXPECT_EQ(ownerOfRank(4, 5), procFromIndex(3));
  EXPECT_EQ(Partition(4).owners(), 3);
  EXPECT_EQ(Partition(4).fastest(), Proc::P);
}

TEST(KOwnerPartitionTest, FreshGridAllOnFastestOwner) {
  Partition q(5, 4);
  EXPECT_EQ(q.owners(), 4);
  EXPECT_EQ(q.fastest(), procFromIndex(3));
  EXPECT_EQ(q.count(q.fastest()), 25);
  for (int x = 0; x < 3; ++x) EXPECT_EQ(q.count(procFromIndex(x)), 0);
  EXPECT_EQ(q.volumeOfCommunication(), 0);
}

TEST(KOwnerPartitionTest, OwnerCountAndIdsChecked) {
  EXPECT_THROW(Partition(0, 3), CheckError);
  EXPECT_THROW(Partition(4, 1), CheckError);
  EXPECT_THROW(Partition(4, 65), CheckError);
  EXPECT_NO_THROW(Partition(2, 2));
  EXPECT_NO_THROW(Partition(2, kMaxOwners));
  Partition q(4, 3);
  EXPECT_THROW(q.set(4, 0, Proc::R), CheckError);
  EXPECT_THROW(q.set(0, 0, procFromIndex(3)), CheckError);
  Partition three(4);
  EXPECT_THROW(three.set(0, 0, procFromIndex(3)), CheckError);
}

TEST(KOwnerPartitionTest, SetUpdatesCounters) {
  Partition q(4, 4);
  const Proc x = procFromIndex(2);
  q.set(1, 2, x);
  EXPECT_EQ(q.at(1, 2), x);
  EXPECT_EQ(q.count(x), 1);
  EXPECT_EQ(q.rowsUsed(x), 1);
  EXPECT_EQ(q.procsInRow(1), 2);
  EXPECT_EQ(q.volumeOfCommunication(), 8);
  q.validateCounters();
}

TEST(KOwnerPartitionTest, FourOwnerQuadrantsVoC) {
  // Four quadrants over four owners: every row and column has exactly
  // 2 owners → VoC = N·N + N·N.
  const int n = 8;
  Partition q(n, 4);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      q.set(i, j, procFromIndex((i >= n / 2) * 2 + (j >= n / 2)));
  EXPECT_EQ(q.volumeOfCommunication(), 2LL * n * n);
  for (int x = 0; x < 4; ++x) {
    EXPECT_EQ(q.count(procFromIndex(x)), n * n / 4);
    EXPECT_TRUE(isAsymptoticallyRectangular(q, procFromIndex(x)));
  }
  q.validateCounters();
}

TEST(KOwnerPartitionTest, EnclosingRectPerOwner) {
  Partition q(6, 5);
  const Proc x = procFromIndex(2);
  q.set(1, 1, x);
  q.set(3, 4, x);
  EXPECT_EQ(q.enclosingRect(x), (Rect{1, 4, 1, 5}));
  EXPECT_TRUE(q.enclosingRect(procFromIndex(1)).isEmpty());
  EXPECT_EQ(q.enclosingRect(q.fastest()), (Rect{0, 6, 0, 6}));
}

TEST(KOwnerPartitionTest, AsymptoticRectangularity) {
  Partition q(5, 4);
  const Proc x = procFromIndex(1);
  for (int i = 1; i < 4; ++i)
    for (int j = 1; j < 4; ++j) q.set(i, j, x);
  EXPECT_TRUE(isAsymptoticallyRectangular(q, x));
  q.set(1, 1, q.fastest());  // partial top row
  EXPECT_TRUE(isAsymptoticallyRectangular(q, x));
  q.set(2, 2, q.fastest());  // interior hole
  EXPECT_FALSE(isAsymptoticallyRectangular(q, x));
  EXPECT_FALSE(isAsymptoticallyRectangular(q, procFromIndex(2)));  // absent
}

TEST(KOwnerPartitionTest, HashAndEquality) {
  Partition a(6, 4), b(6, 4);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(0, 0, procFromIndex(1));
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.hash(), b.hash());
  // The owner count is part of the identity, not only the cells.
  Partition c(6, 3), d(6, 3);
  c.set(0, 0, Proc::R);
  d.set(0, 0, Proc::R);
  EXPECT_EQ(c, d);
  EXPECT_FALSE(Partition(2, 2) == Partition(2, 3));
}

TEST(KOwnerPartitionTest, RandomMutationKeepsCountersExact) {
  Rng rng(42);
  Partition q(16, 6);
  for (int step = 0; step < 4000; ++step) {
    q.set(static_cast<int>(rng.below(16)), static_cast<int>(rng.below(16)),
          procFromIndex(static_cast<int>(rng.below(6))));
  }
  q.validateCounters();
}

TEST(KOwnerPartitionTest, ThreeOwnerPipelineRefusesOtherCounts) {
  Partition q(6, 4);
  q.set(0, 0, Proc::R);
  q.set(5, 5, Proc::S);
  q.set(3, 3, Proc::P);  // a slow owner at four owners
  EXPECT_THROW(BitPartition{q}, CheckError);
  std::ostringstream out;
  EXPECT_THROW(savePartition(q, out), CheckError);
  EXPECT_THROW(classifyArchetype(q), CheckError);
  EXPECT_THROW(buildElementPlan(q), CheckError);
  Machine machine;
  machine.ratio = Ratio{4, 2, 1};
  EXPECT_THROW(evalModel(Algo::kSCB, q, machine), CheckError);
  SimOptions sim;
  sim.machine = machine;
  EXPECT_THROW(simulateMMM(Algo::kSCB, q, sim), CheckError);
  EXPECT_THROW(runParallelMMM(Algo::kSCB, q, ExecOptions{}), CheckError);
}

class KOwnerCountTest : public ::testing::TestWithParam<int> {};

TEST_P(KOwnerCountTest, StripesAcrossKOwners) {
  const int k = GetParam();
  const int n = 2 * k;
  Partition q(n, k);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) q.set(i, j, procFromIndex(j / 2 % k));
  q.validateCounters();
  // Columns single-owner, rows carry all k.
  EXPECT_EQ(q.volumeOfCommunication(),
            static_cast<std::int64_t>(n) * n * (k - 1));
}

INSTANTIATE_TEST_SUITE_P(OwnerCounts, KOwnerCountTest,
                         ::testing::Values(2, 3, 4, 5, 8));

}  // namespace
}  // namespace pushpart
