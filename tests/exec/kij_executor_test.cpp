#include "exec/kij_executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "grid/builder.hpp"
#include "model/models.hpp"
#include "shapes/candidates.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

ExecOptions fastOptions(const Ratio& ratio) {
  ExecOptions opts;
  opts.machine.ratio = ratio;
  opts.machine.sendElementSeconds = 8e-9;
  opts.verify = true;
  opts.seed = 42;
  return opts;
}

TEST(KijExecutorTest, ResultMatchesSerialReference) {
  Rng rng(4);
  const Ratio ratio{2, 1, 1};
  const auto q = randomPartition(48, ratio, rng);
  const auto result = runParallelMMM(Algo::kSCB, q, fastOptions(ratio));
  EXPECT_TRUE(result.verified);
  // The tiled kernel adds each element's products in ascending k starting
  // from 0.0, exactly as multiplySerial does, so the two agree bit for bit.
  EXPECT_EQ(result.maxAbsError, 0.0);
}

struct BitIdentityCase {
  std::string name;
  Ratio ratio;
  Partition q;
};

void PrintTo(const BitIdentityCase& c, std::ostream* os) { *os << c.name; }

std::vector<BitIdentityCase> bitIdentityCases() {
  std::vector<BitIdentityCase> cases;
  // n = 301 is ragged against the 4 x 8 and 6 x 16 tiles and a 96-row
  // block, and spans two pivot blocks.
  const Ratio ratio{5, 2, 1};
  for (CandidateShape shape : kAllCandidates) {
    std::string name = candidateName(shape);
    std::erase(name, '-');
    cases.push_back({name, ratio, makeCandidate(shape, 301, ratio)});
  }
  // Mostly single-cell row runs: every tile is an edge tile.
  Rng rng(20);
  cases.push_back({"Random", ratio, randomPartition(45, ratio, rng)});
  cases.push_back({"OneCell", ratio, Partition(1)});
  // R and S own no cells.
  cases.push_back({"IdleOwners", Ratio{2, 1, 1}, Partition(37)});
  return cases;
}

class KijExecutorBitIdentityTest
    : public ::testing::TestWithParam<BitIdentityCase> {};

TEST_P(KijExecutorBitIdentityTest, MatchesSerialReferenceExactly) {
  // C starts at 0.0 and each tile adds into it, so a cell the kernel skips
  // or computes twice cannot come out exact.
  const BitIdentityCase& c = GetParam();
  const auto result = runParallelMMM(Algo::kPCB, c.q, fastOptions(c.ratio));
  ASSERT_TRUE(result.verified);
  EXPECT_EQ(result.maxAbsError, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Partitions, KijExecutorBitIdentityTest,
    ::testing::ValuesIn(bitIdentityCases()),
    [](const ::testing::TestParamInfo<BitIdentityCase>& p) {
      return p.param.name;
    });

TEST(KijExecutorTest, CandidateShapesComputeCorrectly) {
  const Ratio ratio{5, 2, 1};
  for (CandidateShape shape :
       {CandidateShape::kBlockRectangle, CandidateShape::kSquareRectangle,
        CandidateShape::kTraditionalRectangle}) {
    const auto q = makeCandidate(shape, 40, ratio);
    const auto result = runParallelMMM(Algo::kPCB, q, fastOptions(ratio));
    EXPECT_TRUE(result.verified) << candidateName(shape);
    EXPECT_EQ(result.maxAbsError, 0.0) << candidateName(shape);
  }
}

// The check runs beside the product but counts neither in its span nor in
// any worker's busy time. On an all-P partition R and S own no cells, so
// they finish at once and then drain the check's chunks beside the calling
// thread; at n = 384 the reference is milliseconds of work. Were the chunks
// a worker drains counted as its busy time, R's and S's would be a large
// share of P's.
TEST(KijExecutorTest, CheckCountsInNeitherBusyTimeNorSpan) {
  constexpr int n = 384;
  ExecOptions opts = fastOptions(Ratio{2, 1, 1});
  std::vector<PhaseSample> samples;
  opts.telemetry = [&samples](const PhaseSample& s) { samples.push_back(s); };
  const auto result = runParallelMMM(Algo::kPCB, Partition(n), opts);
  ASSERT_TRUE(result.verified);
  EXPECT_EQ(result.maxAbsError, 0.0);
  const double pBusy = result.computeSeconds[procSlot(Proc::P)];
  for (Proc x : kSlowProcs)
    EXPECT_LT(result.computeSeconds[procSlot(x)], 0.1 * pBusy)
        << procName(x) << " busy, P busy " << pBusy << " s";
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].at, result.wallSeconds);
}

TEST(KijExecutorTest, CommElementsMatchVoC) {
  Rng rng(5);
  const Ratio ratio{3, 1, 1};
  const auto q = randomPartition(32, ratio, rng);
  const auto result = runParallelMMM(Algo::kSCB, q, fastOptions(ratio));
  EXPECT_EQ(result.commElements, q.volumeOfCommunication());
}

TEST(KijExecutorTest, PcbCommNoSlowerPhaseThanScb) {
  Rng rng(6);
  const Ratio ratio{3, 1, 1};
  const auto q = randomPartition(32, ratio, rng);
  const auto scb = runParallelMMM(Algo::kSCB, q, fastOptions(ratio));
  const auto pcb = runParallelMMM(Algo::kPCB, q, fastOptions(ratio));
  EXPECT_LE(pcb.commSeconds, scb.commSeconds + 1e-15);
}

// The emulated comm phase is the model's comm term plus one Hockney start-up:
// both sum the same directed pair volumes at the same T_send, and α enters
// once per phase, after the volumes are summed, so the two agree exactly.
TEST(KijExecutorTest, CommPhaseIsTheModelCommTermPlusOneStartUp) {
  constexpr int n = 24;
  Rng rng(21);
  for (const Ratio& ratio :
       {Ratio{2, 1, 1}, Ratio{3, 2, 1}, Ratio{5, 2, 1}, Ratio{10, 1, 1}}) {
    std::vector<Partition> partitions{randomPartition(n, ratio, rng)};
    for (CandidateShape shape : kAllCandidates)
      if (candidateFeasible(shape, n, ratio))
        partitions.push_back(makeCandidate(shape, n, ratio));
    for (double alpha : {0.0, 1e-5}) {
      ExecOptions opts = fastOptions(ratio);
      opts.machine.alphaSeconds = alpha;
      opts.verify = false;
      for (std::size_t i = 0; i < partitions.size(); ++i)
        for (Algo algo : {Algo::kSCB, Algo::kPCB}) {
          const Partition& q = partitions[i];
          EXPECT_EQ(runParallelMMM(algo, q, opts).commSeconds,
                    evalModel(algo, q, opts.machine).commSeconds + alpha)
              << ratio.str() << " partition " << i << " " << algoName(algo)
              << " alpha " << alpha;
        }
    }
  }
}

TEST(KijExecutorTest, OverlapAlgorithmsRejected) {
  Partition q(8);
  EXPECT_THROW(runParallelMMM(Algo::kSCO, q, fastOptions(Ratio{2, 1, 1})),
               std::invalid_argument);
  EXPECT_THROW(runParallelMMM(Algo::kPIO, q, fastOptions(Ratio{2, 1, 1})),
               std::invalid_argument);
}

TEST(KijExecutorTest, ThrottlingSlowsWallClock) {
  // Same partition, same work; an 8:1:1 ratio forces R and S to 1/8 duty
  // cycle, so wall time must exceed an unthrottled (1:1:1) run. Taking the
  // minimum of several runs suppresses scheduler noise at millisecond scale.
  const int n = 224;  // enough work that throttling dwarfs scheduler noise
  Rng rng(7);
  const auto balanced = randomPartition(n, Ratio{1, 1, 1}, rng);
  auto even = fastOptions(Ratio{1, 1, 1});
  even.verify = false;
  auto skewed = fastOptions(Ratio{8, 1, 1});
  skewed.verify = false;

  double fast = 1e9, slow = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    fast = std::min(fast, runParallelMMM(Algo::kPCB, balanced, even).wallSeconds);
    slow = std::min(slow, runParallelMMM(Algo::kPCB, balanced, skewed).wallSeconds);
  }
  EXPECT_GT(slow, fast);
}

TEST(KijExecutorTest, RatioSizedPartitionBalancesThrottledWorkers) {
  // When the partition matches the speed ratio, per-worker busy times divide
  // by speed and all throttled wall times roughly agree — heterogeneity
  // works as designed. n = 960 makes a run last over 0.1 s with the AVX2
  // tile (n = 480 took ~17 ms), and the median of three runs drops a run
  // that one scheduler slice on a loaded machine has flipped.
  const Ratio ratio{4, 2, 1};
  const auto q = makeCandidate(CandidateShape::kBlockRectangle, 960, ratio);
  auto opts = fastOptions(ratio);
  opts.verify = false;
  std::vector<double> pRuns, sRuns;
  for (int run = 0; run < 3; ++run) {
    const auto result = runParallelMMM(Algo::kPCB, q, opts);
    pRuns.push_back(result.computeSeconds[procSlot(Proc::P)]);
    sRuns.push_back(result.computeSeconds[procSlot(Proc::S)]);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[1];
  };
  // P does 4/7 of the work at full speed; S does 1/7 at quarter speed.
  // Busy (pure compute) time of P should be ≈ 4× S's; allow generous noise
  // margin (sub-second timings on a shared machine).
  const double pBusy = median(pRuns);
  const double sBusy = median(sRuns);
  EXPECT_GT(pBusy, sBusy * 1.5);
}

TEST(KijExecutorTest, DeterministicInputs) {
  Rng rng(8);
  const Ratio ratio{2, 1, 1};
  const auto q = randomPartition(24, ratio, rng);
  const auto a = runParallelMMM(Algo::kSCB, q, fastOptions(ratio));
  const auto b = runParallelMMM(Algo::kSCB, q, fastOptions(ratio));
  EXPECT_EQ(a.commElements, b.commElements);
  EXPECT_DOUBLE_EQ(a.maxAbsError, b.maxAbsError);
}

}  // namespace
}  // namespace pushpart
