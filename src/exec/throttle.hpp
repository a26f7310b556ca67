// Duty-cycle CPU throttle emulating heterogeneous processor speeds.
//
// The paper controlled processor speed ratios on identical nodes with a
// /proc-monitoring limiter: a process runs until it has consumed its CPU
// share, then sleeps until its average rate matches the target (§X-B). This
// throttle does the same inside a worker thread: the caller reports work in
// quanta; whenever the thread's effective speed exceeds `fraction` of full
// speed, the throttle sleeps long enough to restore the target duty cycle.
#pragma once

#include <functional>

namespace pushpart {

class Throttle {
 public:
  /// Sleeps the requested seconds and returns the seconds it measured.
  using SleepStep = std::function<double(double)>;

  /// The real sleep step: std::this_thread::sleep_for, timed by a
  /// Stopwatch. The OS oversleeps by up to a scheduler tick and never wakes
  /// early, so the measured figure is at least the requested one.
  static double sleepFor(double seconds);

  /// fraction ∈ (0, 1]: the share of wall time this thread may compute.
  /// 1.0 disables throttling. `sleep` performs each sleep; tests pass a
  /// fake that returns a chosen figure without sleeping.
  explicit Throttle(double fraction, SleepStep sleep = sleepFor);

  /// Reports that `seconds` of pure compute just happened; sleeps if the
  /// duty cycle is ahead of target. Call at coarse quanta (≥ ~100 µs of
  /// work) so sleep overhead stays negligible.
  void charge(double seconds);

  /// Total time slept so far.
  double sleptSeconds() const { return slept_; }

  double fraction() const { return fraction_; }

 private:
  double fraction_;
  SleepStep sleep_;
  double computed_ = 0.0;
  double slept_ = 0.0;
};

}  // namespace pushpart
