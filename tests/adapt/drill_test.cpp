#include "adapt/drill.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "../support/algo_print.hpp"

namespace pushpart {
namespace {

TEST(DriftScenarioOptionsTest, ValidateRejectsFaultsOnTheFastNode) {
  DriftScenarioOptions options;
  options.faults.kills.push_back(NodeKill{2, 10.0, 20.0});
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = DriftScenarioOptions{};
  options.faults.slowNodes.push_back(SlowNode{2, 10.0, 20.0, 2.0});
  EXPECT_THROW(options.validate(), std::invalid_argument);
}

TEST(DriftScenarioOptionsTest, ValidateRejectsWanderBoundsThatReorderP) {
  DriftScenarioOptions options;
  // Node 0's wander ceiling above node 2's floor: P could stop being the
  // fastest, which the simulator's ratio validity forbids.
  options.wanderMax[0] = options.wanderMin[2] + 1.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
}

class RunDriftDrillAlgoTest : public ::testing::TestWithParam<Algo> {};

TEST_P(RunDriftDrillAlgoTest, QuietScenarioScoresEveryPhaseWithNoReplans) {
  DriftScenarioOptions options;
  options.phases = 40;
  options.algo = GetParam();
  options.wanderStep = 0.0;  // constant speeds, no faults
  Oracle oracle(OracleOptions{});
  const DriftDrillReport report = runDriftDrill(oracle, options);

  ASSERT_EQ(report.records.size(), 40u);
  EXPECT_TRUE(report.windows.empty());
  EXPECT_EQ(report.stats.staleVerdicts, 0u);
  EXPECT_EQ(report.stats.replans, 0u);
  EXPECT_EQ(report.stats.invalidations, 0u);
  EXPECT_NEAR(report.regretFactor(), 1.0, 0.02);
  for (const DriftPhaseRecord& record : report.records) {
    EXPECT_GT(record.servedCost, 0.0);
    EXPECT_GT(record.bestCost, 0.0);
    EXPECT_GE(record.servedCost, record.bestCost * 0.999);
  }
}

INSTANTIATE_TEST_SUITE_P(EveryAlgo, RunDriftDrillAlgoTest,
                         ::testing::ValuesIn(kAllAlgos),
                         ::testing::PrintToStringParamName());

TEST(RunDriftDrillTest, SlowWindowTriggersReplanAndReconverges) {
  DriftScenarioOptions options;
  options.phases = 80;
  options.faults.slowNodes.push_back(SlowNode{0, 20.0, 40.0, 2.5});
  Oracle oracle(OracleOptions{});
  const DriftDrillReport report = runDriftDrill(oracle, options);

  ASSERT_EQ(report.windows.size(), 1u);
  EXPECT_FALSE(report.windows[0].kill);
  EXPECT_TRUE(report.windows[0].replanDuring);
  EXPECT_TRUE(report.windows[0].reconverged);
  EXPECT_GT(report.stats.replans, 0u);
  EXPECT_TRUE(report.regretOk(options.regretBound));
}

}  // namespace
}  // namespace pushpart
