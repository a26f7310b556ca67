// Lock-free log-bucketed latency histogram for the serving layer.
//
// The plan oracle (src/serve) records solve and cache-hit latencies from many
// threads at once; a histogram with fixed logarithmic buckets and atomic
// counters makes record() wait-free and percentile extraction cheap. Buckets
// grow by 2^(1/4) (~19%) starting at 1 ns, so any reported percentile is
// within one bucket (≤ 19%) of the true value — plenty for p50/p95/p99
// reporting, where the interesting differences are orders of magnitude.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace pushpart {

/// Thread-safe histogram of durations in seconds. record() is wait-free
/// (one relaxed atomic increment); readers see a consistent-enough view for
/// monitoring (percentiles over concurrently-updated counters are approximate
/// by nature).
class LatencyHistogram {
 public:
  /// 2^(1/4) bucket growth from 1 ns; 168 buckets reach ~3.8e3 s.
  static constexpr int kBuckets = 168;

  LatencyHistogram() = default;

  // Atomic counters are not copyable; histograms live inside long-lived
  // stats blocks and are read via snapshot().
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one duration. Non-finite or negative values clamp to bucket 0.
  void record(double seconds);

  /// Point-in-time copy with the derived statistics pre-computed.
  struct Snapshot {
    std::uint64_t count = 0;
    double sumSeconds = 0.0;  ///< Approximate (bucket midpoints).
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  Snapshot snapshot() const;

  std::uint64_t count() const;

  /// Value at quantile q in [0, 1] (0 when empty). Returns the geometric
  /// midpoint of the bucket containing the q-th sample.
  double percentile(double q) const;

  /// Resets every bucket to zero. Not atomic with respect to concurrent
  /// record() calls; callers quiesce writers first.
  void reset();

  /// Lower bound (seconds) of bucket i — exposed for tests.
  static double bucketFloor(int i);

 private:
  static int bucketFor(double seconds);

  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
};

}  // namespace pushpart
