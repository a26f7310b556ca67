// The DFA walk on k-owner partitions: random start, Schedule::random over
// the slow owners, the stall cap and beautify, through the one engine.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "dfa/dfa.hpp"
#include "grid/builder.hpp"

namespace pushpart {
namespace {

DfaResult walk(int n, const NSpeeds& speeds, Rng& rng) {
  Partition q0 = randomPartition(n, speeds, rng);
  const Schedule schedule = Schedule::random(rng, speeds.owners());
  return runDfa(std::move(q0), schedule);
}

TEST(KOwnerScheduleTest, CoversSlowOwnersOnly) {
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    const Schedule s = Schedule::random(rng, 5);
    ASSERT_GE(s.slots.size(), 4u);  // each of 4 slow owners at least once
    ASSERT_LE(s.slots.size(), 16u);
    std::set<int> seen;
    for (const auto& slot : s.slots) {
      EXPECT_LT(procIndex(slot.active), 4);
      seen.insert(procIndex(slot.active));
    }
    EXPECT_EQ(seen.size(), 4u);
  }
  EXPECT_EQ(Schedule::full(5).slots.size(), 16u);
  EXPECT_THROW(Schedule::random(rng, 1), CheckError);
}

TEST(KOwnerScheduleTest, ThreeOwnersDrawTheDefaultSchedule) {
  Rng a(31), b(31);
  for (int trial = 0; trial < 20; ++trial)
    EXPECT_EQ(Schedule::random(a, 3).slots, Schedule::random(b).slots);
}

class KOwnerDfaTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(KOwnerDfaTest, WalkCondensesAndNeverWorsens) {
  const auto [speedStr, seed] = GetParam();
  const auto speeds = NSpeeds::parse(speedStr);
  Rng rng(seed);
  const DfaResult result = walk(24, speeds, rng);
  EXPECT_LE(result.vocEnd, result.vocStart);
  EXPECT_GT(result.pushesApplied + result.beautify.pushesApplied, 0);
  result.final.validateCounters();
  const auto counts = speeds.elementCounts(24);
  for (int x = 0; x < result.final.owners(); ++x)
    EXPECT_EQ(result.final.count(procFromIndex(x)),
              counts[static_cast<std::size_t>(x)]);
  // The condensed VoC sits far below the scattered start (scattered states
  // have nearly every line shared by every owner). For k = 2 the floor is
  // the Straight-Line's N² against a 2N² start, hence the 0.65 margin.
  EXPECT_LT(static_cast<double>(result.vocEnd),
            0.65 * static_cast<double>(result.vocStart));
}

INSTANTIATE_TEST_SUITE_P(
    SpeedVectors, KOwnerDfaTest,
    ::testing::Combine(::testing::Values("4:1", "2:1:1", "8:4:2:1",
                                         "4:2:2:1:1"),
                       ::testing::Values(7u, 123u)));

TEST(KOwnerDfaTest, DeterministicForSeed) {
  const auto speeds = NSpeeds::parse("8:4:2:1");
  Rng a(55), b(55);
  const DfaResult ra = walk(16, speeds, a);
  const DfaResult rb = walk(16, speeds, b);
  EXPECT_EQ(ra.final, rb.final);
  EXPECT_EQ(ra.pushesApplied, rb.pushesApplied);
}

TEST(KOwnerDfaTest, BeautifiedWalkIsAFixedPoint) {
  // After the walk's beautify, a second beautify applies no push and moves
  // no cell, at every owner count.
  for (const char* spec : {"4:1", "8:4:2:1", "4:2:2:1:1", "6:5:4:3:2:1"}) {
    const auto speeds = NSpeeds::parse(spec);
    Rng rng(21);
    DfaResult result = walk(20, speeds, rng);
    EXPECT_GT(result.pushesApplied + result.beautify.pushesApplied, 0) << spec;
    EXPECT_LT(result.vocEnd, result.vocStart) << spec;
    const Partition condensed = result.final;
    EXPECT_EQ(beautify(result.final).pushesApplied, 0) << spec;
    EXPECT_EQ(result.final, condensed) << spec;
    EXPECT_TRUE(fullyCondensed(result.final)) << spec;
    result.final.validateCounters();
  }
}

}  // namespace
}  // namespace pushpart
