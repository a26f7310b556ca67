// Admission control for the plan oracle: a bounded concurrency/queue
// limiter plus a tier-B circuit breaker.
//
// Under overload the worst failure mode is the unbounded queue: every
// request eventually gets served, all of them too late to matter. The
// AdmissionController caps how many requests may solve concurrently and how
// many may wait for a slot; everything beyond that is shed immediately
// ("load-shed rejection", the bottom rung of DESIGN.md §12's ladder).
// Waiting is timeout-aware — a queued request gives up when its deadline
// expires instead of being served posthumously.
//
// The CircuitBreaker protects the expensive tier (the DFA search) the
// classic way: consecutive deadline busts trip it open, tier-B work is
// short-circuited to the closed-form tier while open, and after a cool-down
// a single half-open probe decides whether to close again. The clock is
// injectable so tests drive the cool-down deterministically.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <mutex>

#include "support/deadline.hpp"

namespace pushpart {

struct AdmissionOptions {
  /// Concurrent in-flight requests allowed past admission. 0 disables
  /// admission control entirely (every acquire admits immediately).
  int maxConcurrency = 0;
  /// Requests allowed to wait for a slot when all are busy; arrivals beyond
  /// this are shed with kQueueFull. 0 = no waiting room at all.
  int maxQueue = 16;
};

enum class AdmissionOutcome {
  kAdmitted = 0,
  kQueueFull,  ///< Concurrency and waiting room both exhausted: shed.
  kTimedOut,   ///< Waited, but the deadline expired before a slot freed.
};

constexpr const char* admissionOutcomeName(AdmissionOutcome o) {
  switch (o) {
    case AdmissionOutcome::kAdmitted: return "admitted";
    case AdmissionOutcome::kQueueFull: return "queue-full";
    case AdmissionOutcome::kTimedOut: return "timed-out";
  }
  return "?";
}

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Tries to take a slot, waiting (bounded by `deadline`) in the queue if
  /// none is free. Every kAdmitted must be paired with exactly one
  /// release(). The wait bound is the deadline's remaining budget applied
  /// as wall time.
  AdmissionOutcome acquire(const Deadline& deadline);

  void release();

  /// Scoped acquire: admitted() tells whether the slot was taken; the
  /// destructor releases it if so.
  class Permit {
   public:
    Permit(AdmissionController& controller, const Deadline& deadline)
        : controller_(controller), outcome_(controller.acquire(deadline)) {}
    ~Permit() {
      if (admitted()) controller_.release();
    }
    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;

    bool admitted() const { return outcome_ == AdmissionOutcome::kAdmitted; }
    AdmissionOutcome outcome() const { return outcome_; }

   private:
    AdmissionController& controller_;
    AdmissionOutcome outcome_;
  };

  struct Counters {
    std::uint64_t admitted = 0;
    std::uint64_t shedQueueFull = 0;
    std::uint64_t shedTimeout = 0;
    int inUse = 0;   ///< Currently admitted.
    int queued = 0;  ///< Currently waiting.
  };
  Counters counters() const;

  bool enabled() const { return options_.maxConcurrency > 0; }
  const AdmissionOptions& options() const { return options_; }

 private:
  AdmissionOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable slotFreed_;
  Counters counters_;
};

struct BreakerOptions {
  /// Consecutive tier-B deadline busts (truncated or late solves) that trip
  /// the breaker open. 0 disables the breaker (always closed).
  int failureThreshold = 5;
  /// Cool-down: how long the breaker stays open before letting one
  /// half-open probe through.
  double openSeconds = 5.0;
  /// Time source for the cool-down (tests inject a FakeClock).
  const Clock* clock = nullptr;  ///< nullptr = Clock::steady().
};

enum class BreakerState { kClosed = 0, kOpen, kHalfOpen };

constexpr const char* breakerStateName(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

/// Thread-safe consecutive-failure circuit breaker. Protocol: call
/// allowRequest() before attempting the protected work; when it returns
/// true, follow up with exactly one recordSuccess() or recordFailure().
/// When it returns false, degrade without attempting.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerOptions options);

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// Closed: always true. Open: false until the cool-down elapses, then the
  /// breaker half-opens and admits a single probe. Half-open: false while
  /// that probe is outstanding.
  bool allowRequest();

  /// The protected work completed in budget: closes the breaker and resets
  /// the failure run.
  void recordSuccess();

  /// The protected work busted its deadline: lengthens the failure run,
  /// trips the breaker at the threshold, and re-opens on a failed probe.
  void recordFailure();

  BreakerState state() const;

  struct Counters {
    std::uint64_t trips = 0;           ///< Closed/half-open -> open edges.
    std::uint64_t probes = 0;          ///< Half-open attempts admitted.
    std::uint64_t shortCircuited = 0;  ///< allowRequest() == false answers.
    int consecutiveFailures = 0;
  };
  Counters counters() const;

  bool enabled() const { return options_.failureThreshold > 0; }

 private:
  const Clock& clock() const;

  BreakerOptions options_;
  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  double openedAt_ = 0.0;
  bool probeInFlight_ = false;
  Counters counters_;
};

}  // namespace pushpart
