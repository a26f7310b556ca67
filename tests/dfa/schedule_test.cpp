#include "dfa/schedule.hpp"

#include <gtest/gtest.h>

#include <set>

namespace pushpart {
namespace {

TEST(ScheduleTest, FullScheduleHasAllEightSlots) {
  const auto s = Schedule::full();
  EXPECT_EQ(s.slots.size(), 8u);
  std::set<std::pair<char, std::string>> seen;
  for (const auto& slot : s.slots)
    seen.insert({procName(slot.active), directionName(slot.dir)});
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ScheduleTest, RandomScheduleWithinBounds) {
  Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    const auto s = Schedule::random(rng);
    // Each slow processor contributes 1..4 slots; P never appears.
    ASSERT_GE(s.slots.size(), 2u);
    ASSERT_LE(s.slots.size(), 8u);
    int rSlots = 0, sSlots = 0;
    for (const auto& slot : s.slots) {
      ASSERT_NE(slot.active, Proc::P);
      (slot.active == Proc::R ? rSlots : sSlots)++;
    }
    EXPECT_GE(rSlots, 1);
    EXPECT_LE(rSlots, 4);
    EXPECT_GE(sSlots, 1);
    EXPECT_LE(sSlots, 4);
    // No duplicate (proc, dir) pairs.
    std::set<std::pair<Proc, Direction>> unique;
    for (const auto& slot : s.slots) unique.insert({slot.active, slot.dir});
    EXPECT_EQ(unique.size(), s.slots.size());
  }
}

TEST(ScheduleTest, RandomSchedulesVary) {
  Rng rng(13);
  std::set<std::string> seen;
  for (int trial = 0; trial < 100; ++trial)
    seen.insert(Schedule::random(rng).str());
  // With 1-4 directions per proc and random interleaving there are far more
  // than 50 possible schedules.
  EXPECT_GT(seen.size(), 50u);
}

TEST(ScheduleTest, StrFormat) {
  Schedule s;
  s.slots = {{Proc::R, Direction::Down}, {Proc::S, Direction::Left}};
  EXPECT_EQ(s.str(), "R:Down S:Left");
}

TEST(ScheduleTest, DeterministicForSeed) {
  Rng a(44), b(44);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(Schedule::random(a).str(), Schedule::random(b).str());
}

}  // namespace
}  // namespace pushpart
