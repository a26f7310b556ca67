// Wall-clock stopwatch for harness timing.
#pragma once

#include <chrono>

namespace pushpart {

/// Monotonic wall-clock timer. Started on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace pushpart
