#include "model/models.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "grid/builder.hpp"
#include "grid/metrics.hpp"
#include "push/push.hpp"
#include "shapes/candidates.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

Machine testMachine(const Ratio& ratio) {
  Machine m;
  m.ratio = ratio;
  m.sendElementSeconds = 8e-9;
  m.baseFlopSeconds = 1e-9;
  return m;
}

TEST(PairVolumesTest, SumMatchesVoC) {
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const auto q = randomPartition(25, Ratio{3, 2, 1}, rng);
    const auto v = pairVolumes(q);
    std::int64_t total = 0;
    for (int s = 0; s < kNumProcs; ++s) {
      EXPECT_EQ(v[static_cast<std::size_t>(s)][static_cast<std::size_t>(s)], 0);
      for (int r = 0; r < kNumProcs; ++r)
        total += v[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)];
    }
    EXPECT_EQ(total, q.volumeOfCommunication());
  }
}

TEST(PairVolumesTest, DisjointCornersExchangeNothing) {
  // Square-Corner: R and S share no rows or columns, so they never
  // communicate with each other — only with P.
  const auto q = makeCandidate(CandidateShape::kSquareCorner, 60, Ratio{8, 1, 1});
  const auto v = pairVolumes(q);
  EXPECT_EQ(v[procSlot(Proc::R)][procSlot(Proc::S)], 0);
  EXPECT_EQ(v[procSlot(Proc::S)][procSlot(Proc::R)], 0);
  EXPECT_GT(v[procSlot(Proc::P)][procSlot(Proc::R)], 0);
}

TEST(ModelTest, UniformPartitionCommunicatesNothing) {
  Partition q(16);  // everything on P
  const Machine m = testMachine(Ratio{2, 1, 1});
  for (Algo algo : kAllAlgos) {
    const auto r = evalModel(algo, q, m);
    EXPECT_DOUBLE_EQ(r.commSeconds, 0.0) << algoName(algo);
    EXPECT_GT(r.execSeconds, 0.0) << algoName(algo);
  }
}

TEST(ModelTest, ScbCommMatchesVoCTimesTsend) {
  Rng rng(7);
  const auto q = randomPartition(20, Ratio{2, 1, 1}, rng);
  const Machine m = testMachine(Ratio{2, 1, 1});
  const auto r = evalModel(Algo::kSCB, q, m);
  EXPECT_DOUBLE_EQ(
      r.commSeconds,
      static_cast<double>(q.volumeOfCommunication()) * m.sendElementSeconds);
}

TEST(ModelTest, PcbCommIsMaxPerProcessor) {
  Rng rng(8);
  const auto q = randomPartition(20, Ratio{3, 1, 1}, rng);
  const Machine m = testMachine(Ratio{3, 1, 1});
  const auto scb = evalModel(Algo::kSCB, q, m);
  const auto pcb = evalModel(Algo::kPCB, q, m);
  // Parallel communication is never slower than serializing everything and
  // never faster than a third of it (3 senders).
  EXPECT_LE(pcb.commSeconds, scb.commSeconds);
  EXPECT_GE(pcb.commSeconds * 3.0, scb.commSeconds);
}

TEST(ModelTest, ComputationBalancedByRatio) {
  // Partition sized by the ratio: per-processor compute times should be
  // nearly equal, so the barrier max is close to each one.
  const Ratio ratio{4, 2, 1};
  const auto q = makeCandidate(CandidateShape::kBlockRectangle, 70, ratio);
  const Machine m = testMachine(ratio);
  const auto r = evalModel(Algo::kSCB, q, m);
  const double ideal =
      m.baseFlopSeconds * 70.0 * 70.0 * 70.0 / ratio.total();
  EXPECT_NEAR(r.compSeconds, ideal, ideal * 0.05);
}

TEST(ModelTest, OverlapNeverIncreasesExecTime) {
  // SCO/PCO overlap part of the computation with communication, so modeled
  // total time is never worse than the barrier versions.
  Rng rng(9);
  for (int trial = 0; trial < 4; ++trial) {
    const auto q = randomPartition(24, Ratio{5, 2, 1}, rng);
    const Machine m = testMachine(Ratio{5, 2, 1});
    EXPECT_LE(evalModel(Algo::kSCO, q, m).execSeconds,
              evalModel(Algo::kSCB, q, m).execSeconds + 1e-12);
    EXPECT_LE(evalModel(Algo::kPCO, q, m).execSeconds,
              evalModel(Algo::kPCB, q, m).execSeconds + 1e-12);
  }
}

TEST(ModelTest, SquareCornerOverlapIsSubstantial) {
  // In a Square-Corner partition P owns full pivot rows/columns outside the
  // two squares, so bulk overlap covers a large fraction of its work.
  const Ratio ratio{10, 1, 1};
  const auto q = makeCandidate(CandidateShape::kSquareCorner, 80, ratio);
  const Machine m = testMachine(ratio);
  const auto sco = evalModel(Algo::kSCO, q, m);
  EXPECT_GT(sco.overlapSeconds, 0.0);
}

// The paper's monotonicity assertion (§IV-B): every model is non-decreasing
// in communication volume when computation is fixed. Pushes only reduce VoC
// and keep counts fixed, so model times must not increase across a push.
class ModelMonotonicityTest
    : public ::testing::TestWithParam<std::tuple<Algo, std::string>> {};

TEST_P(ModelMonotonicityTest, PushNeverIncreasesModeledTime) {
  const auto [algo, ratioStr] = GetParam();
  const auto ratio = Ratio::parse(ratioStr);
  const Machine m = testMachine(ratio);
  Rng rng(31);
  auto q = randomPartition(20, ratio, rng);
  double last = evalModel(algo, q, m).execSeconds;
  for (int step = 0; step < 60; ++step) {
    const Proc active = kSlowProcs[rng.below(2)];
    const Direction dir = kAllDirections[rng.below(4)];
    if (!tryPush(q, active, dir).applied) continue;
    const double now = evalModel(algo, q, m).execSeconds;
    // SCB time is VoC·T_send + fixed computation, so it is exactly
    // push-monotone.
    EXPECT_LE(now, last + 1e-12) << algoName(algo) << " step " << step;
    last = now;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgosAndRatios, ModelMonotonicityTest,
    ::testing::Combine(::testing::Values(Algo::kSCB),
                       ::testing::Values("2:1:1", "5:2:1", "10:1:1")));

TEST(ModelMonotonicityTest, PcbBoundedByScbThroughoutCondensation) {
  // The per-sender max (PCB) may transiently rise when a push hands cells to
  // the busiest sender (the paper's Eq. 6 d_X counts line coverage, ours
  // counts directed copies — see DESIGN.md), but it always stays within the
  // serial envelope: Σ d_X = VoC, so max_X d_X ∈ [VoC/3, VoC].
  const Ratio ratio{5, 2, 1};
  const Machine m = testMachine(ratio);
  Rng rng(33);
  auto q = randomPartition(20, ratio, rng);
  for (int step = 0; step < 120; ++step) {
    const Proc active = kSlowProcs[rng.below(2)];
    const Direction dir = kAllDirections[rng.below(4)];
    (void)tryPush(q, active, dir);
    const double scb = evalModel(Algo::kSCB, q, m).commSeconds;
    const double pcb = evalModel(Algo::kPCB, q, m).commSeconds;
    ASSERT_LE(pcb, scb + 1e-15);
    ASSERT_GE(pcb * 3.0 + 1e-15, scb);
  }
}

TEST(StarTopologyTest, RelayNeverCheapensCommunication) {
  Rng rng(11);
  const auto q = randomPartition(24, Ratio{3, 2, 1}, rng);
  const Machine m = testMachine(Ratio{3, 2, 1});
  for (Algo algo : kAllAlgos) {
    const double full = evalModel(algo, q, m, Topology::kFullyConnected).commSeconds;
    const double star = evalModel(algo, q, m, Topology::kStar).commSeconds;
    EXPECT_GE(star + 1e-15, full) << algoName(algo);
  }
}

TEST(StarTopologyTest, SquareCornerUnaffectedByStar) {
  // R and S never talk to each other in a Square-Corner partition, so hub
  // relaying adds nothing.
  const auto q = makeCandidate(CandidateShape::kSquareCorner, 60, Ratio{8, 1, 1});
  const Machine m = testMachine(Ratio{8, 1, 1});
  const double full = evalModel(Algo::kSCB, q, m, Topology::kFullyConnected).commSeconds;
  const double star = evalModel(Algo::kSCB, q, m, Topology::kStar).commSeconds;
  EXPECT_DOUBLE_EQ(full, star);
}

TEST(StarTopologyTest, TraditionalRectanglePaysRelay) {
  // R and S stack in one strip and share columns — they do exchange data, so
  // the star hub must forward it.
  const auto q =
      makeCandidate(CandidateShape::kTraditionalRectangle, 60, Ratio{8, 1, 1});
  const Machine m = testMachine(Ratio{8, 1, 1});
  const double full = evalModel(Algo::kSCB, q, m, Topology::kFullyConnected).commSeconds;
  const double star = evalModel(Algo::kSCB, q, m, Topology::kStar).commSeconds;
  EXPECT_GT(star, full);
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

// Star relaying, exactly: with hub h, every element the two spokes exchange
// crosses a second link, so the serial volume grows by exactly the
// spoke↔spoke pair volumes, and the hub's outbound budget carries them on
// top of its own sends. Checked on every canonical shape, each processor
// taking a turn as the hub.
class StarRelayCandidateTest : public ::testing::TestWithParam<ShapeRatio> {};

TEST_P(StarRelayCandidateTest, RelayAddsExactlyTheSpokePairTraffic) {
  const ShapeRatio& c = GetParam();
  const Ratio ratio = Ratio::parse(c.ratio);
  constexpr int n = 120;
  ASSERT_TRUE(candidateFeasible(c.shape, n, ratio));
  const auto q = makeCandidate(c.shape, n, ratio);
  const Machine m = testMachine(ratio);
  const auto v = pairVolumes(q);
  for (Proc hub : kAllProcs) {
    std::array<std::int64_t, kNumProcs> outbound{};
    std::int64_t forwarded = 0;
    for (Proc s : kAllProcs)
      for (Proc r : kAllProcs) {
        outbound[procSlot(s)] += v[procSlot(s)][procSlot(r)];
        if (s != hub && r != hub) forwarded += v[procSlot(s)][procSlot(r)];
      }
    outbound[procSlot(hub)] += forwarded;
    const StarConfig star{hub};
    EXPECT_EQ(evalModel(Algo::kSCB, q, m, Topology::kStar, star).commSeconds,
              m.sendElementSeconds *
                  static_cast<double>(q.volumeOfCommunication() + forwarded))
        << "hub " << procName(hub);
    EXPECT_EQ(evalModel(Algo::kPCB, q, m, Topology::kStar, star).commSeconds,
              m.sendElementSeconds *
                  static_cast<double>(
                      *std::max_element(outbound.begin(), outbound.end())))
        << "hub " << procName(hub);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndRatios, StarRelayCandidateTest, ::testing::ValuesIn(shapeRatios()),
    [](const ::testing::TestParamInfo<ShapeRatio>& p) {
      return shapeRatioName(p.param);
    });

TEST(PioModelTest, CommSumsPerStepVolumes) {
  Rng rng(13);
  const auto q = randomPartition(16, Ratio{2, 1, 1}, rng);
  const Machine m = testMachine(Ratio{2, 1, 1});
  const auto r = evalModel(Algo::kPIO, q, m);
  // Total PIO comm equals the SCB comm (same VoC, sent in per-pivot slices).
  const auto scb = evalModel(Algo::kSCB, q, m);
  EXPECT_NEAR(r.commSeconds, scb.commSeconds, scb.commSeconds * 1e-9);
  // With overlap, PIO exec never exceeds comm+comp fully serialized.
  EXPECT_LE(r.execSeconds, scb.execSeconds + 1e-12);
}

TEST(ModelTest, InvalidRatioRejected) {
  Partition q(8);
  Machine m;
  m.ratio = Ratio{1, 5, 1};
  EXPECT_THROW(evalModel(Algo::kSCB, q, m), CheckError);
}

}  // namespace
}  // namespace pushpart
