#include "exec/throttle.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace pushpart {

double Throttle::sleepFor(double seconds) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  return sw.seconds();
}

Throttle::Throttle(double fraction, SleepStep sleep)
    : fraction_(fraction), sleep_(std::move(sleep)) {
  PUSHPART_CHECK_MSG(fraction > 0.0 && fraction <= 1.0,
                     "throttle fraction must be in (0, 1], got " << fraction);
}

void Throttle::charge(double seconds) {
  PUSHPART_CHECK(seconds >= 0.0);
  computed_ += seconds;
  if (fraction_ >= 1.0) return;
  // After computing for c seconds at duty cycle f, total elapsed should be
  // c / f; sleep the shortfall.
  const double targetElapsed = computed_ / fraction_;
  const double shouldSleep = targetElapsed - computed_ - slept_;
  if (shouldSleep <= 0.0) return;
  // Record the *measured* sleep, not the requested one: the OS oversleeps by
  // up to a scheduler tick, and both the duty-cycle control loop and the
  // caller's busy-time accounting (total − slept) need the real figure.
  slept_ += sleep_(shouldSleep);
}

}  // namespace pushpart
