#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

namespace pushpart {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(RngTest, BelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(123);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  // Each bucket expects 10000; allow ±5% (≈16 sigma, effectively never flaky).
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 95 / 100);
    EXPECT_LT(c, kDraws / kBuckets * 105 / 100);
  }
}

TEST(RngTest, RangeInclusiveBounds) {
  Rng rng(9);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= (v == -3);
    sawHi |= (v == 3);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(RngTest, RangeSingleton) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.range(5, 5), 5);
}

TEST(RngTest, RealInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.real();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ChanceEdgeCases) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng parent(99);
  Rng s0 = parent.split(0);
  Rng s1 = parent.split(1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (s0() == s1()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(RngTest, SplitIsDeterministic) {
  Rng a(5), b(5);
  Rng sa = a.split(3), sb = b.split(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sa(), sb());
}

TEST(RngTest, StreamIsPinned) {
  // One generator per seed draws the four groups in this order: 8 raw
  // draws, 8 below(97), 8 below(2^40 + 3) and 8 real(). Every seeded
  // start state, schedule and input matrix comes from this stream, so any
  // change to its arithmetic fails here, before a golden replay.
  struct Pinned {
    std::uint64_t seed;
    std::array<std::uint64_t, 8> raw;
    std::array<std::uint64_t, 8> below97;
    std::array<std::uint64_t, 8> belowWide;
    std::array<double, 8> real;
  };
  const Pinned pinned[] = {
      {1,
       {0xb3f2af6d0fc710c5ull, 0x853b559647364ceaull, 0x92f89756082a4514ull,
        0x642e1c7bc266a3a7ull, 0xb27a48e29a233673ull, 0x24c123126ffda722ull,
        0x123004ef8df510e6ull, 0x61954dcc47b1e89dull},
       {84, 53, 90, 92, 90, 64, 58, 86},
       {88462246178ull, 540255962830ull, 50379808451ull, 70120655331ull,
        509326985546ull, 545878683373ull, 671573068973ull, 384572247585ull},
       {0x1.9e25c18380d9cp-2, 0x1.b20df58ddff9p-3, 0x1.8ccb76482779cp-2,
        0x1.b5780394bd137p-1, 0x1.8095d3e035f05p-1, 0x1.f6e8ec2f4fd34p-1,
        0x1.67db41ca23d4p-7, 0x1.c332bcd373152p-1}},
      {0xFFFFFFFFFFFFFFFFull,
       {0x8f5520d52a7ead08ull, 0xc476a018caa1802dull, 0x81de31c0d260469eull,
        0xbf658d7e065f3c2full, 0x913593fda1bca32aull, 0xbb535e93941ba525ull,
        0x5ecda415c3c6dfdeull, 0xc487398fc9de9ae2ull},
       {60, 59, 24, 4, 46, 46, 18, 75},
       {203498353610ull, 820169007514ull, 475967256495ull, 504358117684ull,
        59471779922ull, 649693738863ull, 827148491537ull, 529480493084ull},
       {0x1.c7c15b30a6ea4p-1, 0x1.003e9200dc0c8p-2, 0x1.f164725656d24p-3,
        0x1.d9a781789bc9p-2, 0x1.3167e8c3c5e9p-1, 0x1.3008fe66e0bdp-5,
        0x1.e2b08b55fb122p-2, 0x1.87cb7b4fce8dcp-2}},
  };
  for (const Pinned& p : pinned) {
    Rng rng(p.seed);
    for (std::uint64_t want : p.raw) EXPECT_EQ(rng(), want) << p.seed;
    for (std::uint64_t want : p.below97)
      EXPECT_EQ(rng.below(97), want) << p.seed;
    for (std::uint64_t want : p.belowWide)
      EXPECT_EQ(rng.below((1ull << 40) + 3), want) << p.seed;
    for (double want : p.real) EXPECT_EQ(rng.real(), want) << p.seed;
  }
}

}  // namespace
}  // namespace pushpart
