#include "adapt/session.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace pushpart {

void AdaptiveSessionOptions::validate() const {
  estimator.validate();
  if (!(staleGapPct > 0.0))
    throw std::invalid_argument(
        "AdaptiveSession: staleGapPct must be positive");
  if (hysteresisPhases < 1)
    throw std::invalid_argument(
        "AdaptiveSession: hysteresisPhases must be >= 1");
  if (minReplanSeconds < 0.0)
    throw std::invalid_argument(
        "AdaptiveSession: minReplanSeconds must be >= 0");
}

namespace {

DriftOptions driftOptionsFor(const Oracle& oracle,
                             const AdaptiveSessionOptions& options) {
  DriftOptions drift;
  drift.n = options.base.n;
  drift.algo = options.base.algo;
  drift.topology = options.base.topology;
  drift.star = options.base.star;
  drift.machine = oracle.options().machine;
  drift.staleGapPct = options.staleGapPct;
  drift.atlas = oracle.options().atlas;
  return drift;
}

/// Physical processors fastest-first under `ratio` read as physical P/R/S
/// speeds, ties broken by procIndex — the role assignment a plan for that
/// ratio implies.
std::array<Proc, kNumProcs> orderForRatio(const Ratio& ratio) {
  if (ratio.r >= ratio.s) return {Proc::P, Proc::R, Proc::S};
  return {Proc::P, Proc::S, Proc::R};
}

}  // namespace

AdaptiveSession::AdaptiveSession(Oracle& oracle,
                                 AdaptiveSessionOptions options)
    : oracle_(oracle),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : &Clock::steady()),
      estimator_(options_.estimator),
      monitor_(driftOptionsFor(oracle, options_)) {
  options_.validate();
}

void AdaptiveSession::logLocked(std::string what) {
  events_.push_back(AdaptiveEvent{nowLocked(), std::move(what)});
}

void AdaptiveSession::adoptLocked(const PlanResponse& response,
                                  const Ratio& canonicalRatio,
                                  const std::array<Proc, kNumProcs>& order) {
  current_ = response;
  plannedRatio_ = canonicalRatio;
  planOrder_ = order;
  monitor_.adopt(response.answer.shape, canonicalRatio);
  started_ = true;
}

PlanResponse AdaptiveSession::start(const PlanCallOptions& call) {
  PlanRequest req = options_.base;
  const CanonicalKey key = canonicalize(req);
  const PlanResponse response = oracle_.plan(req, call);
  std::lock_guard<std::mutex> lock(mutex_);
  if (response.shed) {
    logLocked("start shed (" + std::string(shedReasonName(response.shedReason)) +
              "); session has no plan yet");
    return response;
  }
  currentKey_ = key;
  adoptLocked(response, key.request.ratio, orderForRatio(options_.base.ratio));
  lastReplanAt_ = nowLocked();
  logLocked("start: " + std::string(candidateName(response.answer.shape)) +
            " at " + key.request.ratio.str());
  return response;
}

DriftVerdict AdaptiveSession::observe(const PhaseSample& sample,
                                      const PlanCallOptions& call) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.phases;
  estimator_.observe(sample);

  DriftVerdict verdict;
  if (!started_) return verdict;  // kNoPlan, fresh

  const RatioEstimate est = estimator_.estimate();
  if (!est.warmedUp) {
    ++stats_.warmupPhases;
    verdict.reason = DriftReason::kWarmup;
    return verdict;
  }
  const Ratio canonical = est.canonical();
  // Speeds by the role each node plays in the *current* plan, normalized
  // like the canonical estimate (slowest current speed == 1) so the frozen
  // re-cost and the best-plan cost share one scale.
  const double slowest = est.speed[procSlot(est.order[kNumProcs - 1])];
  std::array<double, kNumProcs> logicalSpeed{};
  const std::array<Proc, kNumProcs> roles = {Proc::P, Proc::R, Proc::S};
  for (int rank = 0; rank < kNumProcs; ++rank)
    logicalSpeed[procSlot(roles[static_cast<std::size_t>(rank)])] =
        est.speed[procSlot(planOrder_[static_cast<std::size_t>(rank)])] /
        slowest;
  verdict = monitor_.evaluate(canonical, logicalSpeed);

  if (!verdict.stale) {
    staleStreak_ = 0;
    return verdict;
  }

  ++stats_.staleVerdicts;
  ++staleStreak_;
  if (staleStreak_ < options_.hysteresisPhases) {
    ++stats_.hysteresisHolds;  // hysteresis: one noisy phase never replans
    return verdict;
  }
  const double now = nowLocked();
  if (now - lastReplanAt_ < options_.minReplanSeconds) {
    ++stats_.intervalHolds;  // streak kept: fires once the interval opens
    return verdict;
  }

  // Invalidate → re-key → re-plan. The stale entry is dropped so no later
  // request (here or via a replica) can be served the plan we just ruled
  // stale; the re-keyed request takes the oracle's full serving path.
  if (oracle_.invalidateCached(currentKey_)) ++stats_.invalidations;
  std::ostringstream why;
  why << "stale (" << driftReasonName(verdict.reason) << ", gap "
      << verdict.gapPct << "%): invalidated " << currentKey_.text;
  logLocked(why.str());

  PlanRequest req = options_.base;
  req.ratio = canonical;
  const CanonicalKey key = canonicalize(req);
  const PlanResponse response = oracle_.plan(req, call);
  if (response.shed) {
    // Keep the old plan and the stale streak: the next phase retries.
    logLocked("replan shed (" +
              std::string(shedReasonName(response.shedReason)) +
              "); keeping stale plan");
    return verdict;
  }
  currentKey_ = key;
  adoptLocked(response, key.request.ratio, est.order);
  staleStreak_ = 0;
  lastReplanAt_ = now;
  ++stats_.replans;
  logLocked("replan: " + std::string(candidateName(response.answer.shape)) +
            " at " + key.request.ratio.str() +
            (response.answer.atlasServed ? " (atlas-certified)" : ""));
  return verdict;
}

PlanResponse AdaptiveSession::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

Ratio AdaptiveSession::plannedRatio() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plannedRatio_;
}

std::array<Proc, kNumProcs> AdaptiveSession::planOrder() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return planOrder_;
}

RatioEstimate AdaptiveSession::estimate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return estimator_.estimate();
}

RatioEstimator::Counters AdaptiveSession::estimatorCounters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return estimator_.counters();
}

AdaptiveStats AdaptiveSession::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<AdaptiveEvent> AdaptiveSession::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

}  // namespace pushpart
