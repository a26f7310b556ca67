#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "grid/builder.hpp"
#include "grid/line_counts.hpp"
#include "model/models.hpp"
#include "shapes/candidates.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

Machine machineFor(const Ratio& ratio) {
  Machine m;
  m.ratio = ratio;
  m.sendElementSeconds = 8e-9;
  m.baseFlopSeconds = 1e-9;
  return m;
}

TEST(PioBlockedTest, BlockSizeOneMatchesPioModel) {
  Rng rng(3);
  const Ratio ratio{3, 2, 1};
  const auto q = randomPartition(18, ratio, rng);
  const Machine m = machineFor(ratio);
  const auto pio = evalModel(Algo::kPIO, q, m);
  const auto blocked = evalPioBlocked(q, m, 1);
  EXPECT_NEAR(blocked.execSeconds, pio.execSeconds, pio.execSeconds * 1e-12);
  EXPECT_NEAR(blocked.commSeconds, pio.commSeconds, pio.commSeconds * 1e-12);
}

TEST(PioBlockedTest, FullBlockDegeneratesToScb) {
  Rng rng(4);
  const Ratio ratio{2, 1, 1};
  const auto q = randomPartition(16, ratio, rng);
  const Machine m = machineFor(ratio);
  const auto scb = evalModel(Algo::kSCB, q, m);
  const auto blocked = evalPioBlocked(q, m, q.n());
  // One bulk exchange, then all computation — exactly SCB's structure.
  EXPECT_NEAR(blocked.execSeconds, scb.execSeconds, scb.execSeconds * 1e-9);
}

TEST(PioBlockedTest, AllBlockSizesBoundedBySCB) {
  Rng rng(5);
  const Ratio ratio{5, 2, 1};
  const auto q = randomPartition(20, ratio, rng);
  const Machine m = machineFor(ratio);
  const double scb = evalModel(Algo::kSCB, q, m).execSeconds;
  for (int b : {1, 2, 3, 5, 8, 20}) {
    const auto blocked = evalPioBlocked(q, m, b);
    EXPECT_LE(blocked.execSeconds, scb + 1e-12) << "blockSize=" << b;
    // Total volume is invariant: only the slicing changes.
    EXPECT_NEAR(blocked.commSeconds, evalModel(Algo::kSCB, q, m).commSeconds,
                1e-12)
        << "blockSize=" << b;
  }
}

TEST(PioBlockedTest, StarTopologyNeverCheaper) {
  Rng rng(6);
  const Ratio ratio{3, 1, 1};
  const auto q = randomPartition(16, ratio, rng);
  const Machine m = machineFor(ratio);
  for (int b : {1, 4}) {
    const double full =
        evalPioBlocked(q, m, b, Topology::kFullyConnected).commSeconds;
    const double star = evalPioBlocked(q, m, b, Topology::kStar).commSeconds;
    EXPECT_GE(star + 1e-15, full);
  }
}

TEST(PioBlockedTest, LineCountsPriceLikeThePaintedGrid) {
  // Tier A prices PIO from a candidate's runs of equal lines, and a block of
  // pivots may span several runs. Every feasible candidate at the paper's
  // ratios must price exactly as its painted grid, at every block size, on
  // a full network and on a star with each hub.
  std::vector<std::pair<Topology, StarConfig>> topologies = {
      {Topology::kFullyConnected, StarConfig{}}};
  for (Proc hub : kAllProcs)
    topologies.push_back({Topology::kStar, StarConfig{hub}});
  int checked = 0;
  for (int n : {5, 61, 130})
    for (const Ratio& ratio : paperRatios()) {
      const Machine m = machineFor(ratio);
      for (CandidateShape shape : kAllCandidates) {
        if (!candidateFeasible(shape, n, ratio)) continue;
        const LineCounts lines = candidateLines(shape, n, ratio);
        const Partition grid = makeCandidate(shape, n, ratio);
        for (const auto& [topology, star] : topologies)
          for (int b : {1, 2, 7, n}) {
            EXPECT_TRUE(evalPioBlocked(lines, m, b, topology, star) ==
                        evalPioBlocked(grid, m, b, topology, star))
                << "n=" << n << " " << ratio.str() << " "
                << candidateName(shape) << " "
                << topologyName(topology) << " hub "
                << procName(star.hub) << " block " << b;
            ++checked;
          }
      }
    }
  EXPECT_EQ(checked, 3056);
}

TEST(PioBlockedTest, InvalidBlockSizeRejected) {
  Partition q(8);
  EXPECT_THROW(evalPioBlocked(q, machineFor(Ratio{2, 1, 1}), 0), CheckError);
}

TEST(PioBlockedTest, UniformPartitionIsPureCompute) {
  Partition q(12);
  const Machine m = machineFor(Ratio{2, 1, 1});
  for (int b : {1, 3, 12}) {
    const auto r = evalPioBlocked(q, m, b);
    EXPECT_DOUBLE_EQ(r.commSeconds, 0.0);
    EXPECT_NEAR(r.execSeconds, r.compSeconds, r.compSeconds * 1e-12);
  }
}

}  // namespace
}  // namespace pushpart
