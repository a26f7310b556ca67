// The oracle's degradation ladder (DESIGN.md §12), driven deterministically:
// deadlines on a FakeClock, mid-batch cancellation through the onSearchRun
// hook, and breaker cool-downs on an injected clock. No test here sleeps or
// asserts on wall time.
#include <gtest/gtest.h>

#include "serve/oracle.hpp"
#include "support/deadline.hpp"

namespace pushpart {
namespace {

PlanRequest searchRequest(int n = 24, int runs = 6) {
  PlanRequest req;
  req.n = n;
  req.tier = PlanTier::kSearch;
  req.searchRuns = runs;
  return req;
}

TEST(DegradeTest, ExpiredDeadlineServesClosedFormOnly) {
  Oracle oracle(OracleOptions{});
  FakeClock clock;
  PlanCallOptions call;
  call.deadline = Deadline::after(0.0, clock);  // spent before we start

  const PlanResponse r = oracle.plan(searchRequest(), call);
  EXPECT_FALSE(r.shed);
  EXPECT_EQ(r.answer.tier, PlanTier::kSearch);
  EXPECT_EQ(r.answer.servedTier, PlanTier::kFast);
  EXPECT_EQ(r.answer.degrade, DegradeReason::kNoTimeForSearch);
  EXPECT_FALSE(r.answer.fullFidelity());
  EXPECT_TRUE(r.deadlineExceeded);
  EXPECT_EQ(r.answer.searchCompleted, 0);
  // The closed-form recommendation is still real.
  EXPECT_GT(r.answer.voc, 0);

  const OracleStats stats = oracle.stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.noTimeForSearch, 1u);
  EXPECT_EQ(stats.cache.uncacheable, 1u);
  // The solve histograms key on the tier that served, like the sources
  // ledger: this closed-form serve is a tier-A solve.
  EXPECT_EQ(stats.sourceTierA, 1u);
  EXPECT_EQ(stats.tierASolves.count, 1u);
  EXPECT_EQ(stats.tierBSolves.count, 0u);
}

TEST(DegradeTest, DegradedAnswerIsNotCachedAndRetriesAtFullQuality) {
  Oracle oracle(OracleOptions{});
  FakeClock clock;
  PlanCallOptions hurried;
  hurried.deadline = Deadline::after(0.0, clock);
  const PlanResponse degraded = oracle.plan(searchRequest(), hurried);
  EXPECT_FALSE(degraded.answer.fullFidelity());

  // The unhurried retry must not see the degraded answer: it re-solves cold
  // and gets (and caches) the full search-backed one.
  const PlanResponse full = oracle.plan(searchRequest());
  EXPECT_FALSE(full.cacheHit);
  EXPECT_TRUE(full.answer.fullFidelity());
  EXPECT_EQ(full.answer.servedTier, PlanTier::kSearch);
  EXPECT_EQ(full.answer.searchCompleted, full.answer.searchRuns);

  const PlanResponse hit = oracle.plan(searchRequest());
  EXPECT_TRUE(hit.cacheHit);
  EXPECT_EQ(hit.answer, full.answer);
}

TEST(DegradeTest, MidBatchCancellationServesTruncatedBestSoFar) {
  OracleOptions options;
  PlanCallOptions call;  // the hook cancels through this token's flag
  options.onSearchRun = [&call](const CanonicalKey&, int delivered) {
    if (delivered == 2) call.cancel.requestCancel();
  };
  Oracle oracle(options);

  const PlanResponse r = oracle.plan(searchRequest(24, 6), call);
  EXPECT_TRUE(r.answer.truncated);
  EXPECT_EQ(r.answer.degrade, DegradeReason::kTruncatedSearch);
  EXPECT_EQ(r.answer.servedTier, PlanTier::kSearch);
  EXPECT_FALSE(r.answer.fullFidelity());
  // Best-so-far: the delivered walks' evidence survived the cancellation.
  EXPECT_GE(r.answer.searchCompleted, 2);
  EXPECT_LT(r.answer.searchCompleted, r.answer.searchRuns);

  const OracleStats stats = oracle.stats();
  EXPECT_EQ(stats.truncatedSearch, 1u);
  EXPECT_EQ(stats.cache.uncacheable, 1u);
}

TEST(DegradeTest, FullAnswerAfterDeadlineIsMarkedLateButCachedPristine) {
  FakeClock clock;
  OracleOptions options;
  // The solve itself "takes" 1 simulated second: the deadline expires while
  // the solver runs, after the request was admitted on time.
  options.onSolveStart = [&clock](const CanonicalKey&) { clock.advance(1.0); };
  Oracle oracle(options);

  PlanRequest req;  // tier A: the solver never polls the cancel token
  req.n = 24;
  PlanCallOptions call;
  call.deadline = Deadline::after(0.5, clock);
  const PlanResponse late = oracle.plan(req, call);
  EXPECT_TRUE(late.deadlineExceeded);
  EXPECT_EQ(late.answer.degrade, DegradeReason::kLate);
  EXPECT_FALSE(late.answer.fullFidelity());

  // The mark was response-local: an unhurried caller hits the cache and
  // sees the pristine full-fidelity answer.
  const PlanResponse hit = oracle.plan(req);
  EXPECT_TRUE(hit.cacheHit);
  EXPECT_EQ(hit.answer.degrade, DegradeReason::kNone);
  EXPECT_TRUE(hit.answer.fullFidelity());

  const OracleStats stats = oracle.stats();
  EXPECT_EQ(stats.late, 1u);
  EXPECT_EQ(stats.degraded, 1u);
}

TEST(DegradeTest, ConsecutiveBustsTripTheBreakerAndProbeCloses) {
  FakeClock breakerClock;
  FakeClock deadlineClock;
  OracleOptions options;
  options.breaker.failureThreshold = 2;
  options.breaker.openSeconds = 10.0;
  options.breaker.clock = &breakerClock;
  Oracle oracle(options);

  // Two distinct tier-B requests bust their (already expired) deadlines:
  // each records a breaker failure.
  for (int i = 0; i < 2; ++i) {
    PlanCallOptions call;
    call.deadline = Deadline::after(0.0, deadlineClock);
    const PlanResponse r = oracle.plan(searchRequest(24 + i * 2), call);
    EXPECT_EQ(r.answer.degrade, DegradeReason::kNoTimeForSearch);
  }
  EXPECT_EQ(oracle.stats().breakerState, BreakerState::kOpen);
  EXPECT_EQ(oracle.stats().breaker.trips, 1u);

  // While open, even an unhurried tier-B request is short-circuited to the
  // closed-form rung — and, being degraded, not cached.
  const PlanResponse open = oracle.plan(searchRequest(40));
  EXPECT_EQ(open.answer.degrade, DegradeReason::kBreakerOpen);
  EXPECT_EQ(open.answer.servedTier, PlanTier::kFast);
  EXPECT_EQ(oracle.stats().breakerOpenServes, 1u);
  // The two busts and the open serve were all closed-form solves.
  EXPECT_EQ(oracle.stats().tierASolves.count, 3u);
  EXPECT_EQ(oracle.stats().tierBSolves.count, 0u);

  // After the cool-down one probe goes through; it completes in budget and
  // closes the breaker, restoring full tier-B service.
  breakerClock.advance(10.0);
  const PlanResponse probe = oracle.plan(searchRequest(40));
  EXPECT_TRUE(probe.answer.fullFidelity());
  EXPECT_EQ(probe.answer.servedTier, PlanTier::kSearch);
  EXPECT_EQ(oracle.stats().breakerState, BreakerState::kClosed);
  EXPECT_EQ(oracle.stats().breaker.probes, 1u);

  const PlanResponse after = oracle.plan(searchRequest(42));
  EXPECT_TRUE(after.answer.fullFidelity());
}

TEST(DegradeTest, TierARequestsIgnoreTheBreaker) {
  FakeClock clock;
  OracleOptions options;
  options.breaker.failureThreshold = 1;
  options.breaker.clock = &clock;
  Oracle oracle(options);

  PlanCallOptions spent;
  spent.deadline = Deadline::after(0.0, clock);
  oracle.plan(searchRequest(), spent);  // trips the breaker
  ASSERT_EQ(oracle.stats().breakerState, BreakerState::kOpen);

  PlanRequest fast;
  fast.n = 36;
  const PlanResponse r = oracle.plan(fast);
  EXPECT_TRUE(r.answer.fullFidelity());
  EXPECT_EQ(r.answer.servedTier, PlanTier::kFast);
}

TEST(DegradeTest, SolveUncachedBypassesBreakerAndDeadlines) {
  FakeClock clock;
  OracleOptions options;
  options.breaker.failureThreshold = 1;
  options.breaker.clock = &clock;
  Oracle oracle(options);
  PlanCallOptions spent;
  spent.deadline = Deadline::after(0.0, clock);
  oracle.plan(searchRequest(), spent);
  ASSERT_EQ(oracle.stats().breakerState, BreakerState::kOpen);

  const PlanAnswer cold = oracle.solveUncached(searchRequest());
  EXPECT_TRUE(cold.fullFidelity());
  EXPECT_EQ(cold.servedTier, PlanTier::kSearch);
  EXPECT_EQ(cold.searchCompleted, cold.searchRuns);
  // The cold path neither consulted nor reset the breaker.
  EXPECT_EQ(oracle.stats().breakerState, BreakerState::kOpen);
}

}  // namespace
}  // namespace pushpart
