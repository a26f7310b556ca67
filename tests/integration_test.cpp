// End-to-end pipeline tests: the full workflow a user of the library (and
// the paper's own methodology) runs — random start → DFA condensation →
// archetype classification → reduction to a canonical Archetype A candidate
// → performance-model ranking → simulated and real execution.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "dfa/batch.hpp"
#include "exec/kij_executor.hpp"
#include "grid/builder.hpp"
#include "model/closed_form.hpp"
#include "model/optimal.hpp"
#include "shapes/transform.hpp"
#include "sim/mmm_sim.hpp"

namespace pushpart {
namespace {

class PipelineTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(PipelineTest, SearchClassifyReduceRank) {
  const auto [ratioStr, seed] = GetParam();
  const Ratio ratio = Ratio::parse(ratioStr);
  const int n = 36;

  // 1. Search: random start state condenses.
  Rng rng(seed);
  const Schedule schedule = Schedule::random(rng);
  const DfaResult search =
      runDfa(randomPartition(n, ratio, rng), schedule, {});
  ASSERT_LE(search.vocEnd, search.vocStart);

  // 2. Classify: the condensed shape is one of the paper's archetypes.
  const ArchetypeInfo info = classifyArchetype(search.final);
  ASSERT_NE(info.archetype, Archetype::Unknown) << info.str();

  // 3. Reduce: some canonical Archetype A candidate communicates no more
  //    (Thms 8.2–8.4 made executable).
  Partition reduced = search.final;
  const auto reduction = reduceToArchetypeA(reduced, ratio);
  ASSERT_TRUE(reduction.has_value());
  EXPECT_LE(reduction->vocAfter, search.final.volumeOfCommunication());
  EXPECT_EQ(classifyArchetype(reduced).archetype, Archetype::A);

  // 4. Rank: the model's best candidate is at least as good as the reduced
  //    shape under SCB (comm = VoC·T_send, computation identical).
  Machine machine;
  machine.ratio = ratio;
  const RankedCandidate best = selectOptimal(Algo::kSCB, n, machine);
  EXPECT_LE(best.voc, reduced.volumeOfCommunication());

  // 5. Simulate: the discrete-event run of the winner agrees with its model.
  SimOptions simOpts;
  simOpts.machine = machine;
  const Partition winner = makeCandidate(best.shape, n, ratio);
  const SimResult sim = simulateMMM(Algo::kSCB, winner, simOpts);
  EXPECT_NEAR(sim.execSeconds, best.model.execSeconds,
              best.model.execSeconds * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RatiosAndSeeds, PipelineTest,
    ::testing::Combine(::testing::Values("2:1:1", "4:1:1", "10:1:1", "3:2:1",
                                         "5:4:1"),
                       ::testing::Values(5u, 91u)));

TEST(PipelineTest, ModelSimulatorExecutorAgreeOnCommVolume) {
  // The three substrates must account identical element volumes for the same
  // partition: Eq. 1 (model), element·hops (simulator, fully connected) and
  // the executor's ledger.
  const Ratio ratio{5, 2, 1};
  const int n = 48;
  const Partition q = makeCandidate(CandidateShape::kBlockRectangle, n, ratio);

  const auto voc = q.volumeOfCommunication();

  SimOptions simOpts;
  simOpts.machine.ratio = ratio;
  const SimResult sim = simulateMMM(Algo::kSCB, q, simOpts);
  EXPECT_EQ(sim.network.elementsMoved, voc);

  ExecOptions execOpts;
  execOpts.machine.ratio = ratio;
  execOpts.verify = true;
  const ExecResult run = runParallelMMM(Algo::kSCB, q, execOpts);
  EXPECT_EQ(run.commElements, voc);
  EXPECT_TRUE(run.verified);
  EXPECT_EQ(run.maxAbsError, 0.0);  // bit-identical to multiplySerial
}

TEST(PipelineTest, BatchSearchNeverBeatsCandidates) {
  // Strong form of the paper's claim: across a batch of searches, the best
  // condensed VoC never undercuts the best canonical candidate's VoC.
  BatchOptions opts;
  opts.n = 32;
  opts.ratio = Ratio{3, 1, 1};
  opts.runs = 16;
  opts.seed = 1234;

  std::int64_t bestSearched = std::numeric_limits<std::int64_t>::max();
  const BatchSummary summary = runBatch(opts, [&](const BatchRun& run) {
    bestSearched = std::min(bestSearched, run.result.vocEnd);
  });
  ASSERT_TRUE(summary.allCompleted());

  std::int64_t bestCandidate = std::numeric_limits<std::int64_t>::max();
  for (CandidateShape shape : kAllCandidates) {
    if (!candidateFeasible(shape, opts.n, opts.ratio)) continue;
    bestCandidate =
        std::min(bestCandidate, makeCandidate(shape, opts.n, opts.ratio)
                                    .volumeOfCommunication());
  }
  EXPECT_LE(bestCandidate, bestSearched);
}

TEST(PipelineTest, ClosedFormPredictsGridWinnerAtScale) {
  // The closed-form crossover (Fig. 13/14) predicts which grid-built shape
  // wins on either side of it.
  const double crossover = squareCornerCrossover(1, 1);  // ≈ 9.66
  const int n = 300;
  for (double p : {crossover * 0.8, crossover * 1.25}) {
    const Ratio ratio{p, 1, 1};
    if (!candidateFeasible(CandidateShape::kSquareCorner, n, ratio)) continue;
    const auto sc = makeCandidate(CandidateShape::kSquareCorner, n, ratio);
    const auto br = makeCandidate(CandidateShape::kBlockRectangle, n, ratio);
    const bool scWinsGrid =
        sc.volumeOfCommunication() < br.volumeOfCommunication();
    EXPECT_EQ(scWinsGrid, p > crossover) << "P_r=" << p;
  }
}

}  // namespace
}  // namespace pushpart
