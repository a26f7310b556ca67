// The one lock-free event count behind every serving-layer statistic.
//
// A stats struct declares each of its counts once, as a Counter field, and
// the class that owns it keeps one instance of that struct as its live
// store: add() is a single relaxed fetch_add on the hot path, and copying
// the struct reads every count once, so the copy is the snapshot callers
// receive. A Counter reads as std::uint64_t wherever a number is expected
// (arithmetic, comparisons, streams), so readers of a snapshot see plain
// integers.
#pragma once

#include <atomic>
#include <cstdint>

namespace pushpart {

class Counter {
 public:
  Counter() = default;
  /// A copy reads the count once; later add()s to either do not move the
  /// other.
  Counter(const Counter& other) : value_(other.load()) {}
  Counter& operator=(const Counter& other) { return *this = other.load(); }
  Counter& operator=(std::uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
    return *this;
  }

  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t load() const { return value_.load(std::memory_order_relaxed); }
  operator std::uint64_t() const { return load(); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

}  // namespace pushpart
