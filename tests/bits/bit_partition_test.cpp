// BitPartition unit tests: the owner and presence bitsets under writes at
// word boundaries, whole-line and alternating layouts, and counter and bit
// parity with the element-exact grid on random mutation streams.
#include "grid/bit_partition.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "grid/builder.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "verify/invariants.hpp"

namespace pushpart {
namespace {

bool bitAt(std::span<const std::uint64_t> bits, int k) {
  return (bits[static_cast<std::size_t>(k / 64)] >> (k % 64)) & 1u;
}

int popcount(std::span<const std::uint64_t> bits) {
  int total = 0;
  for (std::uint64_t w : bits) total += std::popcount(w);
  return total;
}

TEST(BitPartitionTest, FillConstructionSetsEveryOwnerBit) {
  // n = 70 spans two words per line; bits past n must stay clear.
  const int n = 70;
  const BitPartition q(n, Proc::R);
  EXPECT_EQ(q.n(), n);
  EXPECT_EQ(q.rowBits(Proc::R, 0).size(), 2u);
  for (int k = 0; k < n; ++k) {
    EXPECT_EQ(popcount(q.rowBits(Proc::R, k)), n);
    EXPECT_EQ(popcount(q.colBits(Proc::R, k)), n);
    EXPECT_EQ(popcount(q.rowBits(Proc::P, k)), 0);
  }
  EXPECT_EQ(popcount(q.rowPresence(Proc::R)), n);
  EXPECT_EQ(popcount(q.colPresence(Proc::S)), 0);
  EXPECT_EQ(q.count(Proc::R), static_cast<std::int64_t>(n) * n);
  EXPECT_EQ(q.volumeOfCommunication(), 0);
  q.validateCounters();
}

TEST(BitPartitionTest, WholeRowOwnershipMirrorsIntoColumnBits) {
  // Whole-row ownership: each row's bits are one owner's, while every
  // column's bits split three ways — the transposed sets must agree.
  const int n = 6;
  Partition grid(n, Proc::P);
  for (int j = 0; j < n; ++j) {
    grid.set(0, j, Proc::R);
    grid.set(1, j, Proc::S);
  }
  const BitPartition q(grid);
  EXPECT_EQ(popcount(q.rowBits(Proc::R, 0)), n);
  EXPECT_EQ(popcount(q.rowBits(Proc::S, 1)), n);
  EXPECT_EQ(popcount(q.rowBits(Proc::P, 2)), n);
  for (int j = 0; j < n; ++j) {
    EXPECT_TRUE(bitAt(q.colBits(Proc::R, j), 0));
    EXPECT_TRUE(bitAt(q.colBits(Proc::S, j), 1));
    EXPECT_EQ(popcount(q.colBits(Proc::P, j)), n - 2);
  }
  EXPECT_EQ(popcount(q.rowPresence(Proc::R)), 1);
  EXPECT_EQ(popcount(q.colPresence(Proc::R)), n);
  EXPECT_TRUE(checkBitsGridAgreement(grid, q).ok());
}

TEST(BitPartitionTest, AlternatingOwnersAgreeWithGrid) {
  // RSRSRS... in every row: every word holds two owners' interleaved bits.
  const int n = 8;
  Partition grid(n, Proc::P);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) grid.set(i, j, j % 2 == 0 ? Proc::R : Proc::S);
  const BitPartition q(grid);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(q.rowBits(Proc::R, i)[0], 0x55u);
    EXPECT_EQ(q.rowBits(Proc::S, i)[0], 0xAAu);
  }
  EXPECT_TRUE(checkBitsGridAgreement(grid, q).ok());
  q.validateCounters();
}

TEST(BitPartitionTest, WritesAtWordBoundariesTouchOneBit) {
  // Cells on either side of each word edge, in both orientations: every
  // write must flip exactly the addressed bit of the row and column sets
  // and keep the presence sets in step with the counts.
  const int n = 130;
  BitPartition q(n, Proc::P);
  Partition grid(n, Proc::P);
  for (int k : {0, 62, 63, 64, 65, 127, 128, 129}) {
    q.set(k, 63, Proc::R);
    grid.set(k, 63, Proc::R);
    q.set(64, k, Proc::S);
    grid.set(64, k, Proc::S);
    EXPECT_TRUE(bitAt(q.rowBits(Proc::R, k), 63)) << k;
    EXPECT_TRUE(bitAt(q.colBits(Proc::R, 63), k)) << k;
    EXPECT_TRUE(bitAt(q.rowPresence(Proc::R), k)) << k;
    EXPECT_TRUE(bitAt(q.colPresence(Proc::S), k)) << k;
  }
  // (64, 63) went to S at k = 63 and back to R at k = 64.
  EXPECT_EQ(popcount(q.colBits(Proc::R, 63)), 8);
  EXPECT_EQ(popcount(q.rowBits(Proc::S, 64)), 7);
  EXPECT_TRUE(checkBitsGridAgreement(grid, q).ok());

  // Vacating the last R cell of row 128 clears its presence bit only.
  q.set(128, 63, Proc::P);
  grid.set(128, 63, Proc::P);
  EXPECT_FALSE(bitAt(q.rowPresence(Proc::R), 128));
  EXPECT_TRUE(bitAt(q.rowPresence(Proc::R), 127));
  EXPECT_TRUE(bitAt(q.colPresence(Proc::R), 63));
  EXPECT_TRUE(checkBitsGridAgreement(grid, q).ok());
}

TEST(BitPartitionTest, OutOfRangeWritesThrowAndLeaveTheStateAlone) {
  BitPartition q(5, Proc::P);
  EXPECT_THROW(q.set(5, 0, Proc::R), CheckError);
  EXPECT_THROW(q.set(0, -1, Proc::R), CheckError);
  EXPECT_EQ(q.count(Proc::R), 0);
  q.validateCounters();
}

TEST(BitPartitionTest, SameOwnerSetIsANoOp) {
  BitPartition q(4, Proc::P);
  const std::uint64_t before = q.hash();
  q.set(1, 1, Proc::P);
  EXPECT_EQ(q.hash(), before);
  EXPECT_EQ(popcount(q.rowBits(Proc::P, 1)), 4);
  q.validateCounters();
}

TEST(BitPartitionTest, ConversionRoundTripPreservesEverything) {
  Rng rng(7);
  const Partition grid = randomPartition(12, Ratio{3, 2, 1}, rng);
  const BitPartition q(grid);
  EXPECT_TRUE(q.grid() == grid);
  const BitPartition again(q.grid());
  EXPECT_TRUE(again == q);
  q.validateCounters();
}

TEST(BitPartitionTest, SwapCellsMatchesGrid) {
  Rng rng(11);
  Partition grid = randomPartition(9, Ratio{2, 1, 1}, rng);
  BitPartition q(grid);
  grid.swapCells(0, 0, 8, 8);
  q.swapCells(0, 0, 8, 8);
  grid.swapCells(3, 4, 3, 5);
  q.swapCells(3, 4, 3, 5);
  EXPECT_TRUE(checkBitsGridAgreement(grid, q).ok());
}

TEST(BitPartitionTest, HashIsTheGridsAndEqualityHolds) {
  BitPartition a(6, Proc::P);
  BitPartition b(6, Proc::P);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(3, 3, Proc::R);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_EQ(b.hash(), b.grid().hash());
  b.set(3, 3, Proc::P);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(BitPartitionTest, RandomMutationStreamStaysInLockstep) {
  // One single-word size and one that straddles three words.
  for (int n : {16, 130}) {
    Rng rng(42);
    Partition grid = randomPartition(n, Ratio{5, 2, 1}, rng);
    BitPartition q(grid);
    const auto bound = static_cast<std::uint64_t>(n);
    for (int step = 0; step < 2000; ++step) {
      const int i = static_cast<int>(rng.below(bound));
      const int j = static_cast<int>(rng.below(bound));
      const Proc p = static_cast<Proc>(rng.below(3));
      grid.set(i, j, p);
      q.set(i, j, p);
    }
    EXPECT_TRUE(checkBitsGridAgreement(grid, q).ok()) << "n " << n;
    q.validateCounters();
  }
}

}  // namespace
}  // namespace pushpart
