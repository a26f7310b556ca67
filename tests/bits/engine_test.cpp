// Push/beautify engine parity on the bitboard state: the shared templates in
// push/engine.hpp instantiated on BitPartition must reproduce the grid's
// behaviour operation by operation, including the oriented bit accessors the
// word-granular legality path is built on.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <vector>

#include "dfa/dfa.hpp"
#include "grid/bit_partition.hpp"
#include "grid/builder.hpp"
#include "push/beautify.hpp"
#include "push/engine.hpp"
#include "push/oriented.hpp"
#include "push/push.hpp"
#include "shapes/candidates.hpp"
#include "support/rng.hpp"
#include "verify/invariants.hpp"

namespace pushpart {
namespace {

const Ratio kRatio{3, 2, 1};

bool bitAt(std::span<const std::uint64_t> bits, int k) {
  return (bits[static_cast<std::size_t>(k / 64)] >> (k % 64)) & 1u;
}

TEST(BitEngineTest, OrientedBitAccessorsMatchCells) {
  // In every direction, bit c of a logical row's line is "the cell under
  // (r, c) is p's", and bit c of the column presence is colHas(p, c). n = 70
  // puts logical columns on both sides of the word edge.
  const int n = 70;
  Rng rng(21);
  const BitPartition q(randomPartition(n, kRatio, rng));
  for (Direction dir : kAllDirections) {
    const OrientedView<const BitPartition> view(q, dir);
    for (Proc p : kAllProcs) {
      for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
          ASSERT_EQ(bitAt(view.lineBits(p, r), c), view.at(r, c) == p)
              << directionName(dir) << " " << procName(p) << " (" << r << ","
              << c << ")";
      for (int c = 0; c < n; ++c)
        ASSERT_EQ(bitAt(view.colPresenceBits(p), c), view.colHas(p, c))
            << directionName(dir) << " " << procName(p) << " column " << c;
    }
  }
}

TEST(BitEngineTest, OrientedRowCountsMatchCells) {
  // The solid-row skip reads the active processor's logical row count.
  const int n = 11;
  Rng rng(23);
  const Partition q = randomPartition(n, kRatio, rng);
  for (Direction dir : kAllDirections) {
    const OrientedView<const Partition> view(q, dir);
    for (Proc p : kAllProcs)
      for (int r = 0; r < n; ++r) {
        int cells = 0;
        for (int c = 0; c < n; ++c) cells += view.at(r, c) == p ? 1 : 0;
        ASSERT_EQ(view.rowCount(p, r), cells)
            << directionName(dir) << " " << procName(p) << " row " << r;
      }
  }
}

TEST(BitEngineTest, WordScanMasksEveryRange) {
  // scanWords/firstBitIn against a bit-by-bit reference over every range of
  // a three-word line, so every head/tail mask and word-edge case is hit.
  Rng rng(29);
  const std::array<std::uint64_t, 3> line{rng(), rng() & rng(),
                                          std::uint64_t{1} << 63};
  const auto word = [&](std::size_t w) { return line[w]; };
  for (int from = 0; from <= 192; ++from)
    for (int to = from; to <= 192; ++to) {
      std::vector<int> expected;
      for (int k = from; k < to; ++k)
        if (bitAt(line, k)) expected.push_back(k);
      std::vector<int> seen;
      engine_detail::scanWords(from, to, word, [&](int w, std::uint64_t bits) {
        for (; bits != 0; bits &= bits - 1)
          seen.push_back(w * 64 + std::countr_zero(bits));
        return false;
      });
      ASSERT_EQ(seen, expected) << "[" << from << ", " << to << ")";
      ASSERT_EQ(engine_detail::firstBitIn(from, to, word),
                expected.empty() ? -1 : expected.front())
          << "[" << from << ", " << to << ")";
    }
}

TEST(BitEngineTest, TryPushMatchesGridOutcomeByOutcome) {
  Rng rng(31);
  Partition grid = randomPartition(12, kRatio, rng);
  BitPartition bits(grid);
  for (int step = 0; step < 200; ++step) {
    const Proc active = rng.chance(0.5) ? Proc::R : Proc::S;
    const Direction dir = kAllDirections[rng.below(4)];
    const PushOutcome g = tryPush(grid, active, dir);
    const PushOutcome b = tryPush(bits, active, dir);
    ASSERT_EQ(g.applied, b.applied) << "step " << step;
    ASSERT_EQ(g.vocAfter, b.vocAfter) << "step " << step;
    if (g.applied) {
      ASSERT_EQ(g.type, b.type) << "step " << step;
      ASSERT_EQ(g.elementsMoved, b.elementsMoved) << "step " << step;
    }
    ASSERT_TRUE(checkBitsGridAgreement(grid, bits).ok()) << "step " << step;
  }
}

TEST(BitEngineTest, PushAvailableAgreesEverywhere) {
  Rng rng(37);
  for (int round = 0; round < 10; ++round) {
    const Partition grid = randomPartition(10, kRatio, rng);
    const BitPartition bits(grid);
    for (Proc x : kSlowProcs)
      for (Direction d : kAllDirections) {
        const std::array<Direction, 1> one{d};
        EXPECT_EQ(pushAvailable(grid, x, one), pushAvailable(bits, x, one))
            << procName(x) << " " << directionName(d);
      }
  }
}

TEST(BitEngineTest, BeautifyMatchesGrid) {
  Rng rng(43);
  Partition grid = randomPartition(16, kRatio, rng);
  BitPartition bits(grid);
  const BeautifyResult g = beautify(grid);
  const BeautifyResult b = beautify(bits);
  EXPECT_EQ(g.pushesApplied, b.pushesApplied);
  EXPECT_EQ(g.vocBefore, b.vocBefore);
  EXPECT_EQ(g.vocAfter, b.vocAfter);
  EXPECT_TRUE(checkBitsGridAgreement(grid, bits).ok());
}

TEST(BitEngineTest, CompactRegionMatchesGrid) {
  Rng rng(47);
  Partition grid = randomPartition(14, kRatio, rng);
  BitPartition bits(grid);
  for (Proc x : kSlowProcs) {
    EXPECT_EQ(compactRegion(grid, x), compactRegion(bits, x));
    ASSERT_TRUE(checkBitsGridAgreement(grid, bits).ok());
  }
}

TEST(BitEngineTest, FullyCondensedAgreesOnCandidatesAndRandoms) {
  const Partition candidate =
      makeCandidate(CandidateShape::kSquareCorner, 24, kRatio);
  EXPECT_EQ(fullyCondensed(candidate), fullyCondensed(BitPartition(candidate)));
  EXPECT_TRUE(fullyCondensed(BitPartition(candidate)));
  Rng rng(53);
  for (int round = 0; round < 8; ++round) {
    const Partition grid = randomPartition(12, kRatio, rng);
    EXPECT_EQ(fullyCondensed(grid), fullyCondensed(BitPartition(grid)));
  }
}

TEST(BitEngineTest, DfaTraceRendersFromTheGrid) {
  Rng rng(59);
  const Partition grid = randomPartition(8, kRatio, rng);
  EXPECT_EQ(dfaTraceArt(BitPartition(grid), 8), dfaTraceArt(grid, 8));
}

}  // namespace
}  // namespace pushpart
