#include "dfa/dfa.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "grid/builder.hpp"
#include "support/check.hpp"

namespace pushpart {
namespace {

TEST(DfaTest, EmptyScheduleRejected) {
  Partition q(8);
  EXPECT_THROW(runDfa(q, Schedule{}, {}), CheckError);
}

TEST(DfaTest, CondensesRandomStart) {
  Rng rng(5);
  const Ratio ratio{2, 1, 1};
  auto q0 = randomPartition(24, ratio, rng);
  const auto vocStart = q0.volumeOfCommunication();
  const auto result = runDfa(std::move(q0), Schedule::full(), {});
  EXPECT_EQ(result.vocStart, vocStart);
  EXPECT_LE(result.vocEnd, result.vocStart);
  EXPECT_GT(result.pushesApplied, 0);
  // Full schedule + beautify: no strictly-improving push can remain.
  const PushOptions strictOnly{.allowEqualVoC = false};
  for (Proc active : kSlowProcs)
    EXPECT_FALSE(
        pushAvailable(result.final, active, kAllDirections, strictOnly));
  result.final.validateCounters();
}

TEST(DfaTest, PreservesElementCounts) {
  Rng rng(6);
  const Ratio ratio{5, 2, 1};
  const auto want = ratio.elementCounts(20);
  const auto result =
      runDfa(randomPartition(20, ratio, rng), Schedule::full(), {});
  for (Proc x : kAllProcs) EXPECT_EQ(result.final.count(x), want[procSlot(x)]);
}

TEST(DfaTest, AlreadyCondensedInputStopsImmediately) {
  auto q = fromAscii(
      "RRPP\n"
      "RRPP\n"
      "PPSS\n"
      "PPSS\n");
  const auto result = runDfa(q, Schedule::full(), {});
  EXPECT_EQ(result.stop, DfaStop::kCondensed);
  EXPECT_EQ(result.pushesApplied, 0);
  EXPECT_EQ(result.final, q);
}

TEST(DfaTest, TraceCapturesStartAndEnd) {
  Rng rng(7);
  DfaOptions opts;
  opts.traceEvery = 5;
  opts.traceCells = 10;
  const auto result =
      runDfa(randomPartition(16, Ratio{2, 1, 1}, rng), Schedule::full(), opts);
  ASSERT_GE(result.trace.size(), 2u);
  EXPECT_EQ(result.trace.front().pushesApplied, 0);
  EXPECT_EQ(result.trace.back().pushesApplied, result.pushesApplied);
  // VoC along the trace never increases (beautify may only lower the last).
  for (std::size_t i = 1; i < result.trace.size(); ++i)
    EXPECT_LE(result.trace[i].voc, result.trace[i - 1].voc);
  // Snapshots render at the requested granularity.
  EXPECT_EQ(result.trace.front().art.size(), 11u * 10u);
}

TEST(DfaTest, NoTraceByDefault) {
  Rng rng(8);
  const auto result =
      runDfa(randomPartition(12, Ratio{2, 1, 1}, rng), Schedule::full(), {});
  EXPECT_TRUE(result.trace.empty());
}

TEST(DfaTest, PushBudgetStopsEarly) {
  Rng rng(9);
  DfaOptions opts;
  opts.maxPushes = 3;
  opts.beautifyResult = false;
  const auto result =
      runDfa(randomPartition(20, Ratio{2, 1, 1}, rng), Schedule::full(), opts);
  EXPECT_EQ(result.stop, DfaStop::kPushBudget);
  EXPECT_EQ(result.pushesApplied, 3);
}

TEST(DfaTest, BeautifyOffLeavesScheduleResult) {
  // With a single-direction schedule and beautify off, improving pushes in
  // other directions may remain.
  Rng rng(10);
  DfaOptions opts;
  opts.beautifyResult = false;
  Schedule s;
  s.slots = {{Proc::R, Direction::Down}};
  const auto result =
      runDfa(randomPartition(16, Ratio{2, 1, 1}, rng), s, opts);
  EXPECT_EQ(result.beautify.pushesApplied, 0);
  EXPECT_LE(result.vocEnd, result.vocStart);
}

using DfaParam = std::tuple<int, std::string, std::uint64_t>;

class DfaConvergenceTest : public ::testing::TestWithParam<DfaParam> {};

TEST_P(DfaConvergenceTest, RandomScheduleRunsTerminateAndNeverWorsen) {
  const auto [n, ratioStr, seed] = GetParam();
  const auto ratio = Ratio::parse(ratioStr);
  Rng rng(seed);
  const Schedule schedule = Schedule::random(rng);
  const auto result =
      runDfa(randomPartition(n, ratio, rng), schedule, {});
  EXPECT_LE(result.vocEnd, result.vocStart);
  EXPECT_NE(result.stop, DfaStop::kPushBudget);
  result.final.validateCounters();
  const auto want = ratio.elementCounts(n);
  for (Proc x : kAllProcs) EXPECT_EQ(result.final.count(x), want[procSlot(x)]);
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, DfaConvergenceTest,
    ::testing::Combine(::testing::Values(16, 30),
                       ::testing::Values("2:1:1", "3:1:1", "5:2:1", "10:1:1",
                                         "2:2:1", "5:4:1"),
                       ::testing::Values(3u, 42u, 777u)));

TEST(DfaTest, DeterministicGivenSeedAndSchedule) {
  const Ratio ratio{3, 1, 1};
  Rng a(55), b(55);
  const Schedule sa = Schedule::random(a);
  const Schedule sb = Schedule::random(b);
  const auto ra = runDfa(randomPartition(18, ratio, a), sa, {});
  const auto rb = runDfa(randomPartition(18, ratio, b), sb, {});
  EXPECT_EQ(ra.final, rb.final);
  EXPECT_EQ(ra.pushesApplied, rb.pushesApplied);
}

}  // namespace
}  // namespace pushpart
