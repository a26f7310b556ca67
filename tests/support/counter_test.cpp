#include "support/counter.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace pushpart {
namespace {

TEST(CounterTest, ACopyIsASnapshotLaterAddsDoNotMove) {
  Counter live;
  live.add();
  live.add(2);
  const Counter snapshot = live;
  Counter assigned;
  assigned = live;
  live.add();
  EXPECT_EQ(snapshot, 3u);
  EXPECT_EQ(assigned, 3u);
  EXPECT_EQ(live, 4u);
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  constexpr int kThreads = 4;
  constexpr int kAdds = 100000;
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAdds; ++i) counter.add();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.load(), std::uint64_t{kThreads} * kAdds);
}

TEST(CounterTest, AssignsFromAnInteger) {
  struct Stats {
    Counter served;
    Counter shed;
  } s;
  s.served = 1;
  s.shed = 2;
  EXPECT_EQ(s.served, 1u);
  EXPECT_EQ(s.shed, 2u);
  s.shed.add();
  EXPECT_EQ(s.shed, 3u);
}

TEST(CounterTest, SnapshotsSubtract) {
  Counter live;
  live.add(5);
  const Counter before = live;
  live.add(3);
  const Counter after = live;
  const std::uint64_t delta = after - before;
  EXPECT_EQ(delta, 3u);
  EXPECT_EQ(static_cast<double>(after - before), 3.0);
}

}  // namespace
}  // namespace pushpart
