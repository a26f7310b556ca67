#include "serve/admission.hpp"

#include <chrono>
#include <stdexcept>

namespace pushpart {

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  if (options_.maxConcurrency < 0)
    throw std::invalid_argument(
        "AdmissionController: maxConcurrency must be >= 0 (0 = unlimited)");
  if (options_.maxQueue < 0)
    throw std::invalid_argument(
        "AdmissionController: maxQueue must be >= 0");
}

AdmissionOutcome AdmissionController::acquire(const Deadline& deadline) {
  if (!enabled()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.admitted;
    ++counters_.inUse;
    return AdmissionOutcome::kAdmitted;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (counters_.inUse < options_.maxConcurrency) {
    ++counters_.inUse;
    ++counters_.admitted;
    return AdmissionOutcome::kAdmitted;
  }
  if (counters_.queued >= options_.maxQueue) {
    ++counters_.shedQueueFull;
    return AdmissionOutcome::kQueueFull;
  }

  ++counters_.queued;
  const auto freeSlot = [&]() {
    return counters_.inUse < options_.maxConcurrency;
  };
  bool gotSlot = false;
  if (deadline.isUnlimited()) {
    slotFreed_.wait(lock, freeSlot);
    gotSlot = true;
  } else {
    // The remaining budget is applied as a wall-time bound; an
    // already-expired deadline degenerates to a zero-length wait.
    gotSlot = slotFreed_.wait_for(
        lock, std::chrono::duration<double>(deadline.remainingSeconds()),
        freeSlot);
  }
  --counters_.queued;
  if (!gotSlot) {
    ++counters_.shedTimeout;
    return AdmissionOutcome::kTimedOut;
  }
  ++counters_.inUse;
  ++counters_.admitted;
  return AdmissionOutcome::kAdmitted;
}

void AdmissionController::release() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --counters_.inUse;
  }
  slotFreed_.notify_one();
}

AdmissionController::Counters AdmissionController::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

CircuitBreaker::CircuitBreaker(BreakerOptions options) : options_(options) {
  if (options_.failureThreshold < 0)
    throw std::invalid_argument(
        "CircuitBreaker: failureThreshold must be >= 0 (0 = disabled)");
  if (options_.openSeconds < 0.0)
    throw std::invalid_argument("CircuitBreaker: openSeconds must be >= 0");
}

const Clock& CircuitBreaker::clock() const {
  return options_.clock != nullptr ? *options_.clock : Clock::steady();
}

bool CircuitBreaker::allowRequest() {
  if (!enabled()) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (clock().nowSeconds() - openedAt_ >= options_.openSeconds) {
        state_ = BreakerState::kHalfOpen;
        probeInFlight_ = true;
        ++counters_.probes;
        return true;
      }
      ++counters_.shortCircuited;
      return false;
    case BreakerState::kHalfOpen:
      if (!probeInFlight_) {  // previous probe resolved without closing
        probeInFlight_ = true;
        ++counters_.probes;
        return true;
      }
      ++counters_.shortCircuited;
      return false;
  }
  return true;
}

void CircuitBreaker::recordSuccess() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  state_ = BreakerState::kClosed;
  counters_.consecutiveFailures = 0;
  probeInFlight_ = false;
}

void CircuitBreaker::recordFailure() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == BreakerState::kHalfOpen) {
    // The probe busted its deadline too: straight back to open.
    state_ = BreakerState::kOpen;
    openedAt_ = clock().nowSeconds();
    probeInFlight_ = false;
    ++counters_.trips;
    return;
  }
  ++counters_.consecutiveFailures;
  if (state_ == BreakerState::kClosed &&
      counters_.consecutiveFailures >= options_.failureThreshold) {
    state_ = BreakerState::kOpen;
    openedAt_ = clock().nowSeconds();
    ++counters_.trips;
  }
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

CircuitBreaker::Counters CircuitBreaker::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace pushpart
