#include "family/family.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "family/hierarchical.hpp"
#include "family/layered.hpp"
#include "family/rank.hpp"
#include "model/machine.hpp"
#include "shapes/candidates.hpp"
#include "verify/oracle.hpp"

namespace pushpart {
namespace {

const std::vector<Ratio> kRatios = {
    Ratio{2, 1, 1}, Ratio{5, 2, 1}, Ratio{10, 3, 1}, Ratio{3, 2, 2}};

TEST(FamilySet, ParseAndFormat) {
  EXPECT_EQ(FamilySet::all().str(), "all");
  EXPECT_EQ(FamilySet::canonicalOnly().str(), "canonical");
  EXPECT_FALSE(FamilySet::canonicalOnly().extended());
  EXPECT_TRUE(FamilySet::all().extended());
  EXPECT_EQ(FamilySet::parse("all"), FamilySet::all());
  EXPECT_EQ(FamilySet::parse("canonical,layered").str(), "canonical,layered");
  EXPECT_THROW(FamilySet::parse("bogus"), std::invalid_argument);
  EXPECT_THROW(FamilySet::parse(""), std::invalid_argument);
}

TEST(FamilyNames, RoundTrip) {
  for (const FamilyId id : kAllFamilies) {
    EXPECT_EQ(familyFromName(familyName(id)), id);
  }
  EXPECT_THROW(familyFromName("nope"), std::invalid_argument);
}

TEST(FamilyRegistry, BuiltinsRegisteredInOrder) {
  const auto& reg = builtinFamilies();
  ASSERT_EQ(reg.families().size(), kNumFamilies);
  EXPECT_EQ(reg.families()[0]->id(), FamilyId::kCanonical);
  EXPECT_EQ(reg.families()[1]->id(), FamilyId::kLayered);
  EXPECT_EQ(reg.families()[2]->id(), FamilyId::kHierarchical);
  EXPECT_NE(reg.find(FamilyId::kLayered), nullptr);
}

// Every emitted candidate must carry the ratio's exact element counts and a
// consistent partition — the same contract the canonical constructors obey.
TEST(FamilyEnumerate, ExactCountsAndValidCounters) {
  for (const Ratio& ratio : kRatios) {
    for (const int n : {12, 25}) {
      const auto counts = ratio.elementCounts(n);
      int emitted = 0;
      builtinFamilies().forEach(
          n, ratio, FamilySet::all(), [&](const FamilyCandidate& c) {
            ++emitted;
            EXPECT_FALSE(c.name.empty());
            EXPECT_EQ(c.name.find(' '), std::string::npos) << c.name;
            EXPECT_EQ(c.partition.n(), n) << c.name;
            EXPECT_NO_THROW(c.partition.validateCounters()) << c.name;
            // elementCounts order is the q-encoding {eR, eS, eP}.
            EXPECT_EQ(c.partition.count(Proc::R), counts[0])
                << c.name << " ratio=" << ratio.str() << " n=" << n;
            EXPECT_EQ(c.partition.count(Proc::S), counts[1]) << c.name;
            EXPECT_EQ(c.partition.count(Proc::P), counts[2]) << c.name;
          });
      // All six canonical shapes are feasible at these sizes, and the
      // extended families must contribute beyond them.
      EXPECT_GT(emitted, kNumCandidates)
          << "ratio=" << ratio.str() << " n=" << n;
    }
  }
}

TEST(FamilyEnumerate, DeduplicatesByPartition) {
  for (const Ratio& ratio : kRatios) {
    std::vector<std::uint64_t> hashes;
    builtinFamilies().forEach(20, ratio, FamilySet::all(),
                              [&](const FamilyCandidate& c) {
                                hashes.push_back(c.partition.hash());
                              });
    const std::set<std::uint64_t> unique(hashes.begin(), hashes.end());
    EXPECT_EQ(unique.size(), hashes.size()) << "ratio=" << ratio.str();
  }
}

TEST(FamilyEnumerate, Deterministic) {
  const Ratio ratio{5, 2, 1};
  std::vector<std::string> a, b;
  builtinFamilies().forEach(18, ratio, FamilySet::all(),
                            [&](const FamilyCandidate& c) { a.push_back(c.name); });
  builtinFamilies().forEach(18, ratio, FamilySet::all(),
                            [&](const FamilyCandidate& c) { b.push_back(c.name); });
  EXPECT_EQ(a, b);
}

TEST(FamilyEnumerate, CanonicalMembersMatchMakeCandidate) {
  const Ratio ratio{5, 2, 1};
  const int n = 30;
  int canonical = 0;
  builtinFamilies().forEach(
      n, ratio, FamilySet::canonicalOnly(), [&](const FamilyCandidate& c) {
        ++canonical;
        ASSERT_TRUE(c.shape.has_value());
        EXPECT_EQ(c.name, candidateName(*c.shape));
        const Partition expect = makeCandidate(*c.shape, n, ratio);
        EXPECT_EQ(c.partition.hash(), expect.hash()) << c.name;
      });
  EXPECT_EQ(canonical, kNumCandidates);
}

TEST(LayeredFamily, SpecInventoryAndNames) {
  EXPECT_EQ(allLayeredSpecs().size(), 36u);
  const LayeredSpec spec{{{Proc::P}, {Proc::R, Proc::S}}, true};
  EXPECT_EQ(layeredSpecName(spec), "layers:P/R-S:r");
}

TEST(LayeredFamily, ThreeBandStackMatchesStripLayout) {
  // One band per processor with row bands: each processor owns whole
  // row-aligned stripes, so every row has a single owner.
  const Ratio ratio{2, 1, 1};
  const int n = 16;
  const LayeredSpec spec{{{Proc::P}, {Proc::R}, {Proc::S}}, true};
  const auto q = makeLayeredPartition(n, ratio, spec);
  ASSERT_TRUE(q.has_value());
  for (int r = 0; r < n; ++r) {
    const Proc owner = q->at(r, 0);
    for (int c = 1; c < n; ++c) EXPECT_EQ(q->at(r, c), owner) << "row " << r;
  }
}

TEST(HierarchicalFamily, SpecInventoryAndNames) {
  EXPECT_EQ(allHierSpecs().size(), 60u);
}

TEST(HierarchicalFamily, CornerSquareConfinesTheGroup) {
  // Group {R,S} in a corner square: all R and S cells must lie inside the
  // bottom-right box whose side covers their combined count.
  const Ratio ratio{6, 1, 1};
  const int n = 24;
  HierSpec spec;
  spec.group = {Proc::R, Proc::S};
  spec.placement = GroupPlacement::kCornerSquare;
  const auto q = makeHierPartition(n, ratio, spec);
  ASSERT_TRUE(q.has_value());
  const auto counts = ratio.elementCounts(n);
  const std::int64_t group = counts[procSlot(Proc::R)] + counts[procSlot(Proc::S)];
  int side = 0;
  while (static_cast<std::int64_t>(side) * side < group) ++side;
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      if (q->at(r, c) != Proc::P) {
        EXPECT_GE(r, n - side) << "(" << r << "," << c << ")";
        EXPECT_GE(c, n - side) << "(" << r << "," << c << ")";
      }
}

TEST(FamilyRank, SortedFeasibleAndNonNegativeGaps) {
  Machine machine;
  machine.ratio = Ratio{5, 2, 1};
  const auto ranked =
      rankFamilyCandidates(Algo::kSCB, 40, machine, FamilySet::all());
  ASSERT_FALSE(ranked.empty());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i].gapPct, 0.0) << ranked[i].name;
    EXPECT_GT(ranked[i].voc, 0) << ranked[i].name;
    if (i) {
      EXPECT_LE(ranked[i - 1].model.execSeconds, ranked[i].model.execSeconds);
    }
  }
}

TEST(FamilyRank, BestIsNoWorseThanEveryCanonical) {
  Machine machine;
  for (const Ratio& ratio : kRatios) {
    machine.ratio = ratio;
    for (const Algo algo : kAllAlgos) {
      const auto best =
          bestFamilyCandidate(algo, 30, machine, FamilySet::all());
      ASSERT_TRUE(best.has_value()) << algoName(algo);
      const auto canon =
          bestFamilyCandidate(algo, 30, machine, FamilySet::canonicalOnly());
      ASSERT_TRUE(canon.has_value());
      EXPECT_LE(best->model.execSeconds, canon->model.execSeconds)
          << algoName(algo) << " ratio=" << ratio.str();
    }
  }
}

// The exhaustive small-N oracle minimum is a floor under every family
// member's VoC — the family explores a subset of all arrangements.
TEST(FamilyVsExhaustiveOracle, SmallNFloor) {
  for (const Ratio& ratio : {Ratio{2, 1, 1}, Ratio{3, 1, 1}, Ratio{5, 2, 1}}) {
    for (const int n : {4, 5}) {
      const SmallNOracleResult exact = smallNOptimalVoc(n, ratio);
      if (exact.tier != SmallNOracleTier::kExhaustive) continue;
      builtinFamilies().forEach(
          n, ratio, FamilySet::all(), [&](const FamilyCandidate& c) {
            EXPECT_GE(c.partition.volumeOfCommunication(), exact.minVoc)
                << c.name << " n=" << n << " ratio=" << ratio.str();
          });
    }
  }
}

TEST(FamilyEnumerateN, ExactCountsForFourProcs) {
  NSpeeds speeds;
  speeds.speeds = {8.0, 4.0, 2.0, 1.0};
  const int n = 16;
  const auto counts = speeds.elementCounts(n);
  int emitted = 0;
  std::set<FamilyId> seen;
  builtinFamilies().forEachN(
      n, speeds, FamilySet::all(), [&](const FamilyCandidate& c) {
        ++emitted;
        seen.insert(c.family);
        EXPECT_EQ(c.partition.owners(), 4) << c.name;
        EXPECT_FALSE(c.shape.has_value()) << c.name;
        EXPECT_NO_THROW(c.partition.validateCounters()) << c.name;
        for (std::size_t x = 0; x < counts.size(); ++x) {
          EXPECT_EQ(c.partition.count(procFromIndex(static_cast<int>(x))),
                    counts[x])
              << c.name << " owner " << x;
        }
      });
  EXPECT_GT(emitted, 0);
  EXPECT_TRUE(seen.count(FamilyId::kLayered));
  EXPECT_TRUE(seen.count(FamilyId::kHierarchical));
}

TEST(FamilyEnumerateN, FourOwnersAtASmallGrid) {
  // At n = 5 the 8:4:2:1 Block-Columns lanes are 3, 1 and 1 columns wide;
  // a proportional split without a clamp leaves the slowest owner none.
  const NSpeeds speeds = NSpeeds::parse("8:4:2:1");
  const int n = 5;
  const auto counts = speeds.elementCounts(n);
  bool blockColumns = false;
  ASSERT_NO_THROW(builtinFamilies().forEachN(
      n, speeds, FamilySet::all(), [&](const FamilyCandidate& c) {
        blockColumns = blockColumns || c.name == "Block-Columns";
        EXPECT_NO_THROW(c.partition.validateCounters()) << c.name;
        for (std::size_t x = 0; x < counts.size(); ++x)
          EXPECT_EQ(c.partition.count(procFromIndex(static_cast<int>(x))),
                    counts[x])
              << c.name << " owner " << x;
      }));
  EXPECT_TRUE(blockColumns);
}

TEST(FamilyEnumerateN, TwoProcsServedByCanonicalOnly) {
  NSpeeds speeds;
  speeds.speeds = {3.0, 1.0};
  int emitted = 0;
  builtinFamilies().forEachN(12, speeds, FamilySet::all(),
                             [&](const FamilyCandidate& c) {
                               EXPECT_EQ(c.family, FamilyId::kCanonical);
                               EXPECT_EQ(c.partition.owners(), 2);
                               ++emitted;
                             });
  EXPECT_GT(emitted, 0);
}

TEST(FamilyEnumerateN, ThreeOwnersAreTheRatioCandidates) {
  // Three owners are the paper's R, S and P, so every registered family
  // emits for 5:2:1 speeds what it emits for the 5:2:1 ratio, plus the
  // layered family's speed-rank layerings (which dedup may fold away).
  NSpeeds speeds;
  speeds.speeds = {5.0, 2.0, 1.0};
  const int n = 20;
  std::set<std::uint64_t> fromRatio;
  for (const FamilyCandidate& c :
       builtinFamilies().enumerate(n, Ratio{5, 2, 1}, FamilySet::all()))
    fromRatio.insert(c.partition.hash());
  int canonical = 0;
  for (const FamilyCandidate& c :
       builtinFamilies().enumerateN(n, speeds, FamilySet::all())) {
    EXPECT_EQ(c.partition.owners(), 3) << c.name;
    EXPECT_FALSE(c.shape.has_value()) << c.name;
    if (c.family != FamilyId::kCanonical) continue;
    ++canonical;
    EXPECT_TRUE(fromRatio.count(c.partition.hash())) << c.name;
  }
  EXPECT_GT(canonical, 0);
}

}  // namespace
}  // namespace pushpart
