#include "serve/oracle.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "model/optimal.hpp"

namespace pushpart {
namespace {

PlanRequest searchRequest(int n = 40, int runs = 2) {
  PlanRequest req;
  req.n = n;
  req.ratio = Ratio{5, 2, 1};
  req.algo = Algo::kSCO;
  req.tier = PlanTier::kSearch;
  req.searchRuns = runs;
  req.searchSeed = 11;
  return req;
}

/// Bit-for-bit equality on every field (PlanAnswer's defaulted == compares
/// doubles exactly, which is precisely what the cache must guarantee).
void expectIdentical(const PlanAnswer& a, const PlanAnswer& b) {
  EXPECT_TRUE(a == b)
      << "answers differ: exec " << a.model.execSeconds << " vs "
      << b.model.execSeconds << ", solve " << a.solveSeconds << " vs "
      << b.solveSeconds;
}

TEST(OracleTest, CacheHitIsBitIdenticalToColdComputation) {
  Oracle oracle;
  const PlanRequest req = searchRequest();
  const PlanResponse cold = oracle.plan(req);
  EXPECT_FALSE(cold.cacheHit);
  const PlanResponse hot = oracle.plan(req);
  EXPECT_TRUE(hot.cacheHit);
  expectIdentical(cold.answer, hot.answer);
  EXPECT_EQ(cold.key, hot.key);
}

TEST(OracleTest, EquivalentRequestsShareTheEntry) {
  Oracle oracle;
  PlanRequest a = searchRequest();
  a.ratio = Ratio{5, 2, 1};
  PlanRequest b = searchRequest();
  b.ratio = Ratio{15, 3, 6};  // scaled by 3, R/S labels swapped
  const PlanResponse cold = oracle.plan(a);
  const PlanResponse hot = oracle.plan(b);
  EXPECT_TRUE(hot.cacheHit);
  expectIdentical(cold.answer, hot.answer);
  EXPECT_EQ(oracle.stats().cache.misses, 1u);
}

TEST(OracleTest, FastTierMatchesSelectOptimal) {
  Oracle oracle;
  PlanRequest req;
  req.n = 90;
  req.ratio = Ratio{10, 1, 1};
  req.algo = Algo::kSCO;
  req.tier = PlanTier::kFast;
  const PlanResponse r = oracle.plan(req);
  Machine machine = oracle.options().machine;
  machine.ratio = canonicalize(req).request.ratio;
  const RankedCandidate direct = selectOptimal(req.algo, req.n, machine);
  EXPECT_EQ(r.answer.shape, direct.shape);
  EXPECT_EQ(r.answer.voc, direct.voc);
  EXPECT_EQ(r.answer.model.execSeconds, direct.model.execSeconds);
  EXPECT_EQ(r.answer.tier, PlanTier::kFast);
  EXPECT_EQ(r.answer.searchRuns, 0);
}

TEST(OracleTest, SearchTierRunsTheBudgetAndReportsEvidence) {
  Oracle oracle;
  const PlanRequest req = searchRequest(36, 3);
  const PlanResponse r = oracle.plan(req);
  EXPECT_EQ(r.answer.tier, PlanTier::kSearch);
  EXPECT_EQ(r.answer.searchRuns, 3);
  EXPECT_EQ(r.answer.searchCompleted, 3);
  EXPECT_GT(r.answer.searchBestVoc, 0);
  EXPECT_GT(r.answer.searchBestExecSeconds, 0.0);
}

TEST(OracleTest, SameSeedIsDeterministicAcrossOracles) {
  Oracle first;
  Oracle second;
  const PlanRequest req = searchRequest(32, 4);
  PlanAnswer a = first.solveUncached(req);
  PlanAnswer b = second.solveUncached(req);
  // Wall time of the two solves legitimately differs; everything the solve
  // *computed* must not.
  a.solveSeconds = 0.0;
  b.solveSeconds = 0.0;
  expectIdentical(a, b);
}

// Acceptance criterion: >= 8 concurrent identical requests, exactly one
// underlying solve. Deterministic via the onSolveStart hook — the solving
// thread blocks until the other 7 have coalesced onto its in-flight entry.
TEST(OracleTest, ConcurrentIdenticalRequestsTriggerOneSolve) {
  constexpr int kThreads = 8;
  std::atomic<Oracle*> oraclePtr{nullptr};
  std::atomic<int> solveCalls{0};
  OracleOptions options;
  options.onSolveStart = [&](const CanonicalKey&) {
    solveCalls.fetch_add(1);
    while (oraclePtr.load()->stats().cache.coalesced <
           static_cast<std::uint64_t>(kThreads - 1))
      std::this_thread::yield();
  };
  Oracle oracle(options);
  oraclePtr.store(&oracle);

  const PlanRequest req = searchRequest(30, 2);
  std::vector<PlanResponse> responses(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t]() {
      responses[static_cast<std::size_t>(t)] = oracle.plan(req);
    });
  for (auto& th : pool) th.join();

  EXPECT_EQ(solveCalls.load(), 1);
  const OracleStats stats = oracle.stats();
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_GE(stats.cache.coalesced, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.tierBSolves.count, 1u);
  for (int t = 1; t < kThreads; ++t)
    expectIdentical(responses[0].answer,
                    responses[static_cast<std::size_t>(t)].answer);
}

TEST(OracleTest, DegenerateRequestThrowsAndIsNeverCached) {
  Oracle oracle;
  PlanRequest bad;
  bad.n = 1;  // one cell, three processors: no feasible candidate
  EXPECT_THROW(oracle.plan(bad), std::runtime_error);
  EXPECT_THROW(oracle.plan(bad), std::runtime_error);  // retried, not poisoned
  const OracleStats stats = oracle.stats();
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.entries, 0u);

  PlanRequest malformed;
  malformed.n = -5;
  EXPECT_THROW(oracle.plan(malformed), std::invalid_argument);
}

TEST(OracleTest, OverflowingSharesAreRefusedNotCast) {
  // Finite speeds whose element shares overflow: n²·1e306 is infinite, and
  // casting that share to a count used to be undefined behaviour.
  Oracle oracle;
  PlanRequest req;
  req.n = 48;
  req.ratio = Ratio{1e306, 1e306, 1};
  EXPECT_THROW(oracle.plan(req), std::invalid_argument);
  EXPECT_EQ(oracle.stats().cache.entries, 0u);
}

TEST(OracleTest, EvictionsAccrueUnderTinyCache) {
  OracleOptions options;
  options.cacheCapacity = 2;
  options.cacheShards = 1;
  Oracle oracle(options);
  for (int n : {24, 30, 36, 42}) {
    PlanRequest req;
    req.n = n;
    oracle.plan(req);
  }
  const OracleStats stats = oracle.stats();
  EXPECT_EQ(stats.cache.misses, 4u);
  EXPECT_GE(stats.cache.evictions, 2u);
  EXPECT_LE(stats.cache.entries, 2u);
}

TEST(OracleTest, HitLatencyHistogramFills) {
  Oracle oracle;
  PlanRequest req;
  req.n = 48;
  oracle.plan(req);
  for (int i = 0; i < 10; ++i) oracle.plan(req);
  const OracleStats stats = oracle.stats();
  EXPECT_EQ(stats.hitLatency.count, 10u);
  EXPECT_GT(stats.hitLatency.p50, 0.0);
  EXPECT_LE(stats.hitLatency.p50, stats.hitLatency.p99);
  EXPECT_EQ(stats.tierASolves.count, 1u);
}

TEST(OracleTest, EveryAnswerCarriesANonNegativeOptimalityGap) {
  Oracle oracle;
  for (int n : {40, 90}) {
    PlanRequest req;
    req.n = n;
    req.ratio = Ratio{7, 3, 1};
    req.tier = PlanTier::kFast;
    const PlanResponse r = oracle.plan(req);
    EXPECT_GE(r.answer.optimalityGapPct, 0.0);
    EXPECT_FALSE(r.answer.familyCandidate.empty());
    EXPECT_EQ(r.answer.family, FamilyId::kCanonical);
  }
}

TEST(OracleTest, ExtendedFamiliesNeverLoseToCanonicalServing) {
  OracleOptions canonicalOnly;
  Oracle base(canonicalOnly);
  OracleOptions extended;
  extended.families = FamilySet::all();
  Oracle fam(extended);
  // R_r = 3 cells are where layered/hierarchical candidates strictly beat
  // the rounded canonical constructions at n = 90 (see E19).
  for (double pr : {5.0, 7.0, 12.0}) {
    PlanRequest req;
    req.n = 90;
    req.ratio = Ratio{pr, 3, 1};
    req.tier = PlanTier::kFast;
    const PlanResponse a = base.plan(req);
    const PlanResponse b = fam.plan(req);
    EXPECT_LE(b.answer.model.execSeconds, a.answer.model.execSeconds);
    EXPECT_GE(b.answer.optimalityGapPct, 0.0);
    EXPECT_LE(b.answer.optimalityGapPct, a.answer.optimalityGapPct);
    // The canonical shape field survives as the best six-shape answer even
    // when an extended candidate is served.
    EXPECT_EQ(b.answer.shape, a.answer.shape);
    if (b.answer.family != FamilyId::kCanonical) {
      EXPECT_LT(b.answer.voc, a.answer.voc);
    }
  }
}

}  // namespace
}  // namespace pushpart
