#include "sim/mmm_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "grid/builder.hpp"
#include "model/models.hpp"
#include "shapes/candidates.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

SimOptions flatOptions(const Ratio& ratio) {
  SimOptions opts;
  opts.machine.alphaSeconds = 0.0;
  opts.machine.sendElementSeconds = 8e-9;
  opts.machine.baseFlopSeconds = 1e-9;
  opts.machine.ratio = ratio;
  return opts;
}

TEST(MmmSimTest, ZeroLatencyMatchesAnalyticModelSCB) {
  Rng rng(5);
  const Ratio ratio{3, 2, 1};
  const auto q = randomPartition(20, ratio, rng);
  const auto opts = flatOptions(ratio);
  const auto sim = simulateMMM(Algo::kSCB, q, opts);
  const auto model = evalModel(Algo::kSCB, q, opts.machine);
  EXPECT_NEAR(sim.commSeconds, model.commSeconds, model.commSeconds * 1e-9);
  EXPECT_NEAR(sim.execSeconds, model.execSeconds, model.execSeconds * 1e-9);
}

TEST(MmmSimTest, ZeroLatencyMatchesAnalyticModelPCB) {
  Rng rng(6);
  const Ratio ratio{5, 2, 1};
  const auto q = randomPartition(20, ratio, rng);
  const auto opts = flatOptions(ratio);
  const auto sim = simulateMMM(Algo::kPCB, q, opts);
  const auto model = evalModel(Algo::kPCB, q, opts.machine);
  EXPECT_NEAR(sim.commSeconds, model.commSeconds, model.commSeconds * 1e-9);
}

TEST(MmmSimTest, ZeroLatencyMatchesAnalyticModelOverlap) {
  const Ratio ratio{10, 1, 1};
  const auto q = makeCandidate(CandidateShape::kSquareCorner, 60, ratio);
  const auto opts = flatOptions(ratio);
  for (Algo algo : {Algo::kSCO, Algo::kPCO}) {
    const auto sim = simulateMMM(algo, q, opts);
    const auto model = evalModel(algo, q, opts.machine);
    EXPECT_NEAR(sim.execSeconds, model.execSeconds, model.execSeconds * 1e-9)
        << algoName(algo);
    EXPECT_NEAR(sim.overlapSeconds, model.overlapSeconds,
                model.overlapSeconds * 1e-9 + 1e-15)
        << algoName(algo);
  }
}

// One canonical shape at one ratio. It prints as its test-name suffix, so
// the ctest names carry no pointer values and stay the same across builds.
struct ShapeRatio {
  CandidateShape shape;
  const char* ratio;
};

std::string shapeRatioName(const ShapeRatio& c) {
  std::string name = std::string(candidateName(c.shape)) + "_" + c.ratio;
  std::erase(name, '-');
  std::replace(name.begin(), name.end(), ':', '_');
  return name;
}

void PrintTo(const ShapeRatio& c, std::ostream* os) {
  *os << shapeRatioName(c);
}

std::vector<ShapeRatio> shapeRatios() {
  std::vector<ShapeRatio> cases;
  for (CandidateShape shape : kAllCandidates)
    for (const char* ratio : {"3:1:1", "10:1:1", "5:2:1"})
      cases.push_back({shape, ratio});
  return cases;
}

// The zero-latency collapse on the shapes the paper compares. Random
// partitions give no owner a full row and a full column, so their bulk
// overlap is empty; the Square-Corner leaves P whole rows and columns, and
// each shape routes a different mix of pair volumes through the NICs.
class ZeroLatencyCandidateTest : public ::testing::TestWithParam<ShapeRatio> {};

TEST_P(ZeroLatencyCandidateTest, SimulationMatchesEveryBulkModel) {
  const ShapeRatio& c = GetParam();
  const Ratio ratio = Ratio::parse(c.ratio);
  constexpr int n = 60;
  ASSERT_TRUE(candidateFeasible(c.shape, n, ratio));
  const auto q = makeCandidate(c.shape, n, ratio);
  const auto opts = flatOptions(ratio);
  for (Algo algo : {Algo::kSCB, Algo::kPCB, Algo::kSCO, Algo::kPCO}) {
    const auto sim = simulateMMM(algo, q, opts);
    const auto model = evalModel(algo, q, opts.machine);
    ASSERT_TRUE(sim.completed) << algoName(algo);
    EXPECT_NEAR(sim.commSeconds, model.commSeconds, model.commSeconds * 1e-9)
        << algoName(algo);
    EXPECT_NEAR(sim.overlapSeconds, model.overlapSeconds,
                model.overlapSeconds * 1e-9 + 1e-15)
        << algoName(algo);
    EXPECT_NEAR(sim.execSeconds, model.execSeconds, model.execSeconds * 1e-9)
        << algoName(algo);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndRatios, ZeroLatencyCandidateTest, ::testing::ValuesIn(shapeRatios()),
    [](const ::testing::TestParamInfo<ShapeRatio>& p) {
      return shapeRatioName(p.param);
    });

TEST(MmmSimTest, LatencyIncreasesTime) {
  Rng rng(7);
  const Ratio ratio{2, 1, 1};
  const auto q = randomPartition(16, ratio, rng);
  auto opts = flatOptions(ratio);
  const double base = simulateMMM(Algo::kSCB, q, opts).commSeconds;
  opts.machine.alphaSeconds = 1e-4;
  const double withAlpha = simulateMMM(Algo::kSCB, q, opts).commSeconds;
  EXPECT_GT(withAlpha, base);
}

TEST(MmmSimTest, ChunkingExposesMoreLatency) {
  Rng rng(8);
  const Ratio ratio{2, 1, 1};
  const auto q = randomPartition(16, ratio, rng);
  auto opts = flatOptions(ratio);
  opts.machine.alphaSeconds = 1e-4;
  const double oneChunk = simulateMMM(Algo::kSCB, q, opts).commSeconds;
  opts.chunksPerPair = 8;
  const double eightChunks = simulateMMM(Algo::kSCB, q, opts).commSeconds;
  EXPECT_GT(eightChunks, oneChunk);
  // Chunking preserves total volume: with α = 0 nothing changes.
  opts.machine.alphaSeconds = 0.0;
  const double flat8 = simulateMMM(Algo::kSCB, q, opts).commSeconds;
  opts.chunksPerPair = 1;
  const double flat1 = simulateMMM(Algo::kSCB, q, opts).commSeconds;
  EXPECT_NEAR(flat8, flat1, flat1 * 1e-9);
}

TEST(MmmSimTest, StarTopologyCostsAtLeastFullyConnected) {
  Rng rng(9);
  const Ratio ratio{3, 2, 1};
  const auto q = randomPartition(18, ratio, rng);
  for (Algo algo : {Algo::kSCB, Algo::kPCB, Algo::kPIO}) {
    auto opts = flatOptions(ratio);
    const double full = simulateMMM(algo, q, opts).execSeconds;
    opts.topology = Topology::kStar;
    const double star = simulateMMM(algo, q, opts).execSeconds;
    EXPECT_GE(star + 1e-15, full) << algoName(algo);
  }
}

TEST(MmmSimTest, PioTotalVolumeMatchesBulk) {
  // The per-step schedule moves exactly the same elements as the bulk
  // algorithms (fully-connected: element·hops == VoC).
  Rng rng(10);
  const Ratio ratio{2, 1, 1};
  const auto q = randomPartition(14, ratio, rng);
  const auto opts = flatOptions(ratio);
  const auto pio = simulateMMM(Algo::kPIO, q, opts);
  const auto scb = simulateMMM(Algo::kSCB, q, opts);
  EXPECT_EQ(pio.network.elementsMoved, scb.network.elementsMoved);
  EXPECT_EQ(pio.network.elementsMoved, q.volumeOfCommunication());
}

TEST(MmmSimTest, UniformPartitionHasNoTraffic) {
  Partition q(12);
  const auto opts = flatOptions(Ratio{2, 1, 1});
  for (Algo algo : kAllAlgos) {
    const auto sim = simulateMMM(algo, q, opts);
    EXPECT_EQ(sim.network.messagesSent, 0) << algoName(algo);
    EXPECT_GT(sim.execSeconds, 0.0) << algoName(algo);
  }
}

TEST(MmmSimTest, SquareCornerBeatsBlockRectangleAtHighRatio) {
  // Fig. 14's shape comparison reproduced on the simulator.
  const Ratio ratio{10, 1, 1};
  const auto opts = flatOptions(ratio);
  const auto sc = makeCandidate(CandidateShape::kSquareCorner, 80, ratio);
  const auto br = makeCandidate(CandidateShape::kBlockRectangle, 80, ratio);
  EXPECT_LT(simulateMMM(Algo::kSCB, sc, opts).commSeconds,
            simulateMMM(Algo::kSCB, br, opts).commSeconds);
}

TEST(MmmSimTest, PioBlockOneMatchesDefault) {
  Rng rng(21);
  const Ratio ratio{3, 1, 1};
  const auto q = randomPartition(16, ratio, rng);
  auto opts = flatOptions(ratio);
  const double base = simulateMMM(Algo::kPIO, q, opts).execSeconds;
  opts.pioBlockSize = 1;
  EXPECT_DOUBLE_EQ(simulateMMM(Algo::kPIO, q, opts).execSeconds, base);
}

TEST(MmmSimTest, PioBlockingAmortizesLatency) {
  Rng rng(22);
  const Ratio ratio{3, 1, 1};
  const auto q = randomPartition(20, ratio, rng);
  auto opts = flatOptions(ratio);
  opts.machine.alphaSeconds = 1e-4;  // heavy per-message latency
  opts.pioBlockSize = 1;
  const double fine = simulateMMM(Algo::kPIO, q, opts).execSeconds;
  opts.pioBlockSize = q.n();
  const double bulk = simulateMMM(Algo::kPIO, q, opts).execSeconds;
  EXPECT_LT(bulk, fine);
}

TEST(MmmSimTest, PioBlockingPreservesTotalVolume) {
  Rng rng(23);
  const Ratio ratio{2, 1, 1};
  const auto q = randomPartition(14, ratio, rng);
  auto opts = flatOptions(ratio);
  for (int b : {1, 3, 7, 14}) {
    opts.pioBlockSize = b;
    EXPECT_EQ(simulateMMM(Algo::kPIO, q, opts).network.elementsMoved,
              q.volumeOfCommunication())
        << "blockSize=" << b;
  }
}

TEST(MmmSimTest, PioSimRefinesBlockedModelDownward) {
  // Eq. 9 charges each step's full volume serially; the simulator lets
  // different senders' NICs proceed in parallel, so it can only be faster —
  // never slower — than the analytic charge, at every block size.
  Rng rng(24);
  const Ratio ratio{4, 2, 1};
  const auto q = randomPartition(16, ratio, rng);
  auto opts = flatOptions(ratio);
  for (int b : {1, 2, 4, 16}) {
    opts.pioBlockSize = b;
    const auto sim = simulateMMM(Algo::kPIO, q, opts);
    const auto model = evalPioBlocked(q, opts.machine, b);
    EXPECT_LE(sim.execSeconds, model.execSeconds * (1 + 1e-9))
        << "blockSize=" << b;
    // Same elements move either way.
    EXPECT_EQ(sim.network.elementsMoved, q.volumeOfCommunication());
  }
}

TEST(MmmSimTest, InvalidPioBlockRejected) {
  Partition q(8);
  SimOptions opts = flatOptions(Ratio{2, 1, 1});
  opts.pioBlockSize = 0;
  EXPECT_THROW(simulateMMM(Algo::kPIO, q, opts), CheckError);
}

TEST(MmmSimTest, InvalidChunksRejected) {
  Partition q(8);
  SimOptions opts = flatOptions(Ratio{2, 1, 1});
  opts.chunksPerPair = 0;
  EXPECT_THROW(simulateMMM(Algo::kSCB, q, opts), CheckError);
}

}  // namespace
}  // namespace pushpart
