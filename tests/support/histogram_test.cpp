#include "support/histogram.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace pushpart {
namespace {

TEST(LatencyHistogramTest, EmptyReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(s.sumSeconds, 0.0);
}

TEST(LatencyHistogramTest, PercentileWithinBucketResolution) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(1e-4);  // 100 us
  EXPECT_EQ(h.count(), 1000u);
  // Buckets grow by 2^(1/4) (~19%); the reported midpoint must be within
  // one bucket of the true value.
  EXPECT_NEAR(h.percentile(0.5), 1e-4, 0.2e-4);
  EXPECT_NEAR(h.percentile(0.99), 1e-4, 0.2e-4);
}

TEST(LatencyHistogramTest, PercentilesOrderedAcrossMixedLoad) {
  LatencyHistogram h;
  for (int i = 0; i < 95; ++i) h.record(1e-6);  // fast: hits
  for (int i = 0; i < 5; ++i) h.record(1e-2);   // slow: cold solves
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.p50, 1e-6, 0.2e-6);
  EXPECT_NEAR(s.p95, 1e-6, 0.2e-6);  // 95th sample is still fast
  EXPECT_NEAR(s.p99, 1e-2, 0.2e-2);  // 99th lands in the slow tail
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(LatencyHistogramTest, OutOfRangeValuesClampToEdgeBuckets) {
  LatencyHistogram h;
  h.record(-1.0);  // negative -> bucket 0
  h.record(0.0);
  h.record(1e9);  // beyond the top bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_GT(h.percentile(1.0), 0.0);
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram h;
  h.record(1e-3);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllCounted) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&h]() {
      for (int i = 0; i < kPerThread; ++i) h.record(1e-5);
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace pushpart
