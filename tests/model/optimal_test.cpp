#include "model/optimal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

Machine machineWith(const Ratio& ratio) {
  Machine m;
  m.ratio = ratio;
  return m;
}

/// Ranks the painted grids the way rankCandidates ranks line counts: every
/// feasible candidate, modeled and stably sorted by execution time.
std::vector<RankedCandidate> rankGrids(const std::vector<Partition>& grids,
                                       const std::vector<CandidateShape>& shapes,
                                       Algo algo, const Machine& machine,
                                       Topology topology, StarConfig star) {
  std::vector<RankedCandidate> out;
  for (std::size_t i = 0; i < grids.size(); ++i)
    out.push_back({shapes[i],
                   evalModel(algo, grids[i], machine, topology, star),
                   grids[i].volumeOfCommunication()});
  std::stable_sort(out.begin(), out.end(),
                   [](const RankedCandidate& a, const RankedCandidate& b) {
                     return a.model.execSeconds < b.model.execSeconds;
                   });
  return out;
}

/// Tier A ranks from candidateLines; the grid reference paints each
/// candidate with makeCandidate and models the Partition. Every algorithm on
/// every topology (star with each hub) must give the same order, the same
/// ModelResult bit for bit and the same VoC. Returns the instances checked.
int expectLinesRankLikeGrids(int n, const Ratio& ratio) {
  std::vector<Partition> grids;
  std::vector<CandidateShape> shapes;
  for (CandidateShape shape : kAllCandidates) {
    if (!candidateFeasible(shape, n, ratio)) continue;
    grids.push_back(makeCandidate(shape, n, ratio));
    shapes.push_back(shape);
  }
  const Machine machine = machineWith(ratio);
  std::vector<std::pair<Topology, StarConfig>> topologies = {
      {Topology::kFullyConnected, StarConfig{}}};
  for (Proc hub : kAllProcs)
    topologies.push_back({Topology::kStar, StarConfig{hub}});

  int instances = 0;
  for (Algo algo : kAllAlgos) {
    for (const auto& [topology, star] : topologies) {
      const auto lines = rankCandidates(algo, n, machine, topology, star);
      const auto grid = rankGrids(grids, shapes, algo, machine, topology, star);
      const std::string where = "n=" + std::to_string(n) + " " + ratio.str() +
                                " " + algoName(algo) + " " +
                                topologyName(topology) + " hub " +
                                procName(star.hub);
      if (lines.size() != grid.size()) {
        ADD_FAILURE() << where << ": " << lines.size() << " vs "
                      << grid.size() << " candidates";
        return instances;
      }
      for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i].shape, grid[i].shape) << where << " rank " << i;
        EXPECT_TRUE(lines[i].model == grid[i].model)
            << where << " " << candidateName(grid[i].shape);
        EXPECT_EQ(lines[i].voc, grid[i].voc)
            << where << " " << candidateName(grid[i].shape);
        ++instances;
      }
    }
  }
  return instances;
}

TEST(RankCandidatesTest, ReturnsSortedFeasibleCandidates) {
  const auto ranked =
      rankCandidates(Algo::kSCB, 90, machineWith(Ratio{5, 2, 1}));
  ASSERT_GE(ranked.size(), 4u);
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_LE(ranked[i - 1].model.execSeconds, ranked[i].model.execSeconds);
}

TEST(RankCandidatesTest, InfeasibleShapesExcluded) {
  // P_r too small for the Square-Corner: it must not appear.
  const auto ranked =
      rankCandidates(Algo::kSCB, 90, machineWith(Ratio{1.2, 1, 1}));
  for (const auto& r : ranked)
    EXPECT_NE(r.shape, CandidateShape::kSquareCorner);
}

TEST(SelectOptimalTest, HighHeterogeneityBulkOverlapPrefersSquareCorner) {
  // The paper's two-processor result carries over: with bulk overlap and a
  // strongly heterogeneous ratio, the Square-Corner wins.
  const auto best =
      selectOptimal(Algo::kSCO, 120, machineWith(Ratio{10, 1, 1}));
  EXPECT_EQ(best.shape, CandidateShape::kSquareCorner)
      << candidateName(best.shape);
}

TEST(SelectOptimalTest, NearHomogeneousPrefersRectangular) {
  // 2:1:1 under SCB: the Square-Corner is infeasible (P_r = 2 boundary) or
  // weak; a rectangular family shape must win.
  const auto best = selectOptimal(Algo::kSCB, 120, machineWith(Ratio{2, 1, 1}));
  EXPECT_NE(best.shape, CandidateShape::kSquareCorner);
}

TEST(SelectOptimalTest, WinnerHasMinimalVoCAmongTies) {
  const auto ranked = rankCandidates(Algo::kSCB, 120, machineWith(Ratio{5, 1, 1}));
  ASSERT_FALSE(ranked.empty());
  // Under SCB (comm = VoC·T_send, comp identical across shapes with equal
  // counts), the ranking must follow VoC.
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_LE(ranked[i - 1].voc, ranked[i].voc);
}

TEST(SelectOptimalTest, DegenerateNThrows) {
  // n = 1: one cell cannot be split across three processors, so no candidate
  // is feasible and selectOptimal must refuse with a message naming n.
  try {
    selectOptimal(Algo::kSCB, 1, machineWith(Ratio{5, 2, 1}));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("n=1"), std::string::npos);
  }
  EXPECT_TRUE(rankCandidates(Algo::kSCB, 1, machineWith(Ratio{5, 2, 1}))
                  .empty());
}

TEST(RankCandidatesTest, EqualTimesBreakTiesInCanonicalOrder) {
  // A zero-cost machine models every candidate at exactly 0 s — a six-way
  // tie. The stable sort must then preserve the kAllCandidates enumeration
  // order, making the winner deterministic rather than
  // implementation-defined.
  Machine free = machineWith(Ratio{5, 2, 1});
  free.alphaSeconds = 0.0;
  free.sendElementSeconds = 0.0;
  free.baseFlopSeconds = 0.0;
  const auto ranked = rankCandidates(Algo::kSCB, 90, free);
  ASSERT_GE(ranked.size(), 2u);
  for (const auto& r : ranked) EXPECT_EQ(r.model.execSeconds, 0.0);
  std::size_t cursor = 0;
  for (CandidateShape shape : kAllCandidates) {
    if (cursor < ranked.size() && ranked[cursor].shape == shape) ++cursor;
  }
  EXPECT_EQ(cursor, ranked.size())
      << "tied candidates not in canonical enumeration order";
  const auto again = rankCandidates(Algo::kSCB, 90, free);
  for (std::size_t i = 0; i < ranked.size(); ++i)
    EXPECT_EQ(ranked[i].shape, again[i].shape);
}

TEST(SelectOptimalTest, ScaledRatiosPickTheSameShape) {
  // 6:3:3 describes the same *partitioning problem* as 2:1:1: identical
  // fractions, so identical candidate partitions and identical per-candidate
  // VoC. In a Machine, though, speeds are anchored by baseFlopSeconds (S at
  // speed 1), so scaling the ratio also speeds up the physical machine;
  // under the barrier algorithms the winner depends only on communication
  // (computation is identical across candidates) and must not move. The
  // serve layer's canonicalization (normalize to s = 1 before solving)
  // builds on exactly this invariance.
  for (Algo algo : {Algo::kSCB, Algo::kPCB}) {
    const auto a = selectOptimal(algo, 120, machineWith(Ratio{2, 1, 1}));
    const auto b = selectOptimal(algo, 120, machineWith(Ratio{6, 3, 3}));
    EXPECT_EQ(a.shape, b.shape) << algoName(algo);
    EXPECT_EQ(a.voc, b.voc) << algoName(algo);
  }
  // The candidate set itself is scale-invariant for every algorithm: same
  // shapes in some order, with pairwise-equal VoC per shape.
  for (Algo algo : kAllAlgos) {
    const auto a = rankCandidates(algo, 120, machineWith(Ratio{2, 1, 1}));
    const auto b = rankCandidates(algo, 120, machineWith(Ratio{6, 3, 3}));
    ASSERT_EQ(a.size(), b.size()) << algoName(algo);
    for (const auto& ra : a) {
      bool found = false;
      for (const auto& rb : b)
        found = found || (ra.shape == rb.shape && ra.voc == rb.voc);
      EXPECT_TRUE(found) << algoName(algo) << " "
                         << candidateName(ra.shape);
    }
  }
}

TEST(RankCandidatesTest, LineCountsRankLikeThePaintedGrids) {
  int instances = 0;
  // Every small n, where rounding and infeasibility edges crowd together,
  // at the paper's eleven ratios.
  for (int n = 1; n <= 60; ++n)
    for (const Ratio& ratio : paperRatios())
      instances += expectLinesRankLikeGrids(n, ratio);
  // Seeded random ratios up to n = 420, with P = R and R = S ties and the
  // R < S labelling mixed in.
  Rng rng(20140519);
  for (int trial = 0; trial < 160; ++trial) {
    const auto n = static_cast<int>(rng.range(61, 420));
    const double p = 1.0 + 9.0 * rng.real();
    double r = 1.0 + (p - 1.0) * rng.real();
    double s = 1.0;
    switch (trial % 4) {
      case 0: r = p; break;  // P = R
      case 1: s = r; break;  // R = S
      case 2: s = 1.0 + (p - 1.0) * rng.real(); break;  // R < S possible
      default: break;
    }
    instances += expectLinesRankLikeGrids(n, Ratio{p, r, s});
  }
  EXPECT_GT(instances, 90000);
}

TEST(SelectOptimalTest, NBeyondTheModelBoundIsRefused) {
  // 2,097,152³ = 2⁶³: P's MAC count would overflow int64 inside evalModel.
  // Tier A refuses the request before building any line counts.
  const Machine machine = machineWith(Ratio{5, 2, 1});
  EXPECT_EQ(kMaxModelN, 2'097'151);
  EXPECT_THROW(selectOptimal(Algo::kSCB, 2'097'152, machine), CheckError);
  EXPECT_THROW(rankCandidates(Algo::kPIO, 2'097'152, machine), CheckError);
  EXPECT_THROW(rankOne(CandidateShape::kBlockRectangle, Algo::kSCB,
                       2'097'152, machine),
               CheckError);
}

TEST(SelectOptimalTest, StarTopologyCanChangeWinner) {
  // Not asserting a specific flip, but the machinery must accept topology
  // and produce a ranking either way.
  const auto full = rankCandidates(Algo::kPCB, 90, machineWith(Ratio{4, 2, 1}),
                                   Topology::kFullyConnected);
  const auto star = rankCandidates(Algo::kPCB, 90, machineWith(Ratio{4, 2, 1}),
                                   Topology::kStar);
  EXPECT_EQ(full.size(), star.size());
  for (std::size_t i = 0; i < full.size(); ++i)
    EXPECT_GE(star[i].model.commSeconds + 1e-15,
              0.0);  // well-formed numbers
}

}  // namespace
}  // namespace pushpart
