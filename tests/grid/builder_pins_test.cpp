// Pins the cells of every partition builder. Each case folds the hash() of
// every output over a fixed input grid into one 64-bit FNV-1a value and
// compares it with the value the builders produced when it was recorded, so
// a change that moves one cell of one output, skips or adds an output, or
// reorders a family's members fails the builder's case. A change that moves
// cells on purpose re-records the value and says why.
//
// Infeasible inputs fold a 0, so a feasibility change shows too. The
// four-owner inputs stay at n >= 8.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "family/family.hpp"
#include "grid/builder.hpp"
#include "shapes/candidates.hpp"
#include "shapes/kowner.hpp"
#include "support/fnv.hpp"
#include "support/rng.hpp"
#include "verify/oracle.hpp"

namespace pushpart {
namespace {

/// A running FNV-1a over 64-bit values, each folded low byte first.
class Fold {
 public:
  void add(std::uint64_t v) {
    std::array<std::byte, 8> bytes{};
    for (std::size_t b = 0; b < bytes.size(); ++b)
      bytes[b] = static_cast<std::byte>(v >> (8 * b));
    h_ = fnv1a(bytes, h_);
  }
  void add(const Partition& q) { add(q.hash()); }
  void add(const FamilyCandidate& c) {
    add(fnv1a(c.name));
    add(c.partition);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kFnv1aBasis;
};

constexpr std::array<int, 4> kSizes = {5, 12, 61, 130};

const std::vector<NSpeeds>& speedLists() {
  static const std::vector<NSpeeds> lists = [] {
    std::vector<NSpeeds> out;
    for (const char* spec :
         {"3:1", "1:1", "5:2:1", "8:4:2:1", "4:3:2:1", "16:8:4:1", "20:2:2:1",
          "1:1:1:1", "10:9:8:7", "16:8:4:2:1"})
      out.push_back(NSpeeds::parse(spec));
    return out;
  }();
  return lists;
}

TEST(BuilderPinsTest, Candidates) {
  Fold fold;
  for (const int n : kSizes)
    for (const Ratio& ratio : paperRatios())
      for (const CandidateShape shape : kAllCandidates) {
        if (candidateFeasible(shape, n, ratio))
          fold.add(makeCandidate(shape, n, ratio));
        else
          fold.add(0);
      }
  EXPECT_EQ(fold.value(), 0x5d0329cb7ae12793ull);
}

TEST(BuilderPinsTest, FamilyMembers) {
  Fold fold;
  for (const int n : kSizes)
    for (const Ratio& ratio : paperRatios())
      builtinFamilies().forEach(
          n, ratio, FamilySet::all(),
          [&](const FamilyCandidate& c) { fold.add(c); });
  EXPECT_EQ(fold.value(), 0xf6d64ba90769eb79ull);
}

TEST(BuilderPinsTest, FamilyMembersOverSpeeds) {
  Fold fold;
  for (const int n : {8, 12, 61})
    for (const NSpeeds& speeds : speedLists())
      builtinFamilies().forEachN(
          n, speeds, FamilySet::all(),
          [&](const FamilyCandidate& c) { fold.add(c); });
  EXPECT_EQ(fold.value(), 0xedd0a3b369bb86e1ull);
}

TEST(BuilderPinsTest, RandomStarts) {
  Fold scattered, clustered, overSpeeds;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull})
    for (const int n : kSizes) {
      for (const Ratio& ratio : paperRatios()) {
        Rng a(seed), b(seed);
        scattered.add(randomPartition(n, ratio, a));
        clustered.add(randomClusteredPartition(n, ratio, b));
      }
      for (const NSpeeds& speeds : speedLists()) {
        Rng rng(seed);
        overSpeeds.add(randomPartition(n, speeds, rng));
      }
    }
  EXPECT_EQ(scattered.value(), 0x6aedf20822b67daeull);
  EXPECT_EQ(clustered.value(), 0xad98a16f810e80acull);
  EXPECT_EQ(overSpeeds.value(), 0x8874605b62e395f6ull);
}

TEST(BuilderPinsTest, TwoOwnerShapes) {
  Fold fold;
  for (const int n : {5, 12, 61})
    for (const double p : {1.0, 1.5, 2.0, 3.0, 5.0, 8.0})
      for (const double aspect : {0.5, 1.0, 2.0, 3.0})
        for (const TwoProcShape shape :
             {TwoProcShape::kStraightLine, TwoProcShape::kSquareCorner,
              TwoProcShape::kRectangleCorner})
          fold.add(makeTwoProcCandidate(shape, n, p, aspect));
  EXPECT_EQ(fold.value(), 0x80f2349726214075ull);
}

TEST(BuilderPinsTest, FourOwnerShapes) {
  Fold fold;
  for (const int n : {8, 12, 61})
    for (const NSpeeds& speeds : speedLists()) {
      if (speeds.owners() != 4) continue;
      for (const FourProcShape shape :
           {FourProcShape::kCornerSquares, FourProcShape::kBlockColumns,
            FourProcShape::kColumnStrips}) {
        if (fourProcFeasible(shape, n, speeds))
          fold.add(makeFourProcCandidate(shape, n, speeds));
        else
          fold.add(0);
      }
    }
  EXPECT_EQ(fold.value(), 0x99626f07962e0872ull);
}

TEST(BuilderPinsTest, OracleFamilyTier) {
  Fold fold;
  int familyTier = 0, painted = 0;
  for (int n = 6; n <= 16; ++n)
    for (const Ratio& ratio : paperRatios()) {
      const SmallNOracleResult result = smallNOptimalVoc(n, ratio);
      if (result.tier != SmallNOracleTier::kFamily) continue;
      ++familyTier;
      fold.add(static_cast<std::uint64_t>(result.minVoc));
      fold.add(result.best);
      // A best that is no canonical candidate is a painted placement pair.
      bool candidate = false;
      for (const CandidateShape shape : kAllCandidates)
        if (candidateFeasible(shape, n, ratio))
          candidate = candidate || makeCandidate(shape, n, ratio) == result.best;
      if (!candidate) ++painted;
    }
  EXPECT_GT(familyTier, 0);
  EXPECT_GT(painted, 0);
  EXPECT_EQ(fold.value(), 0x8cedf1efe2ce6181ull);
}

}  // namespace
}  // namespace pushpart
