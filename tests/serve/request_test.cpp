#include "serve/request.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace pushpart {
namespace {

TEST(CanonicalizeTest, ScaledRatiosShareOneKey) {
  PlanRequest a;
  a.n = 1000;
  a.ratio = Ratio{2, 1, 1};
  PlanRequest b = a;
  b.ratio = Ratio{6, 3, 3};
  EXPECT_EQ(canonicalize(a).text, canonicalize(b).text);
  EXPECT_EQ(canonicalize(a).hash, canonicalize(b).hash);
  EXPECT_EQ(canonicalize(b).request.ratio, (Ratio{2, 1, 1}));
}

TEST(CanonicalizeTest, RSwapFoldsOntoOneKey) {
  PlanRequest a;
  a.ratio = Ratio{5, 2, 1};
  PlanRequest b = a;
  b.ratio = Ratio{5, 1, 2};  // same machine, R and S labels exchanged
  EXPECT_EQ(canonicalize(a).text, canonicalize(b).text);
}

TEST(CanonicalizeTest, RSwapRelabelsStarHub) {
  PlanRequest req;
  req.ratio = Ratio{5, 1, 2};
  req.topology = Topology::kStar;
  req.star.hub = Proc::R;  // the speed-1 processor hosts the hub
  const CanonicalKey key = canonicalize(req);
  // After the swap the speed-1 processor is labeled S; the hub must follow.
  EXPECT_EQ(key.request.star.hub, Proc::S);
  EXPECT_EQ(key.request.ratio, (Ratio{5, 2, 1}));
}

TEST(CanonicalizeTest, HubIrrelevantOnFullyConnected) {
  PlanRequest a;
  a.star.hub = Proc::R;
  PlanRequest b;
  b.star.hub = Proc::S;
  EXPECT_EQ(canonicalize(a).text, canonicalize(b).text);
}

TEST(CanonicalizeTest, HubDistinguishesStarKeys) {
  PlanRequest a;
  a.topology = Topology::kStar;
  a.star.hub = Proc::P;
  PlanRequest b = a;
  b.star.hub = Proc::R;
  EXPECT_NE(canonicalize(a).text, canonicalize(b).text);
}

TEST(CanonicalizeTest, FastTierIgnoresSearchBudget) {
  PlanRequest a;
  a.tier = PlanTier::kFast;
  a.searchRuns = 100;
  a.searchSeed = 7;
  PlanRequest b;
  b.tier = PlanTier::kFast;
  b.searchRuns = 3;
  b.searchSeed = 99;
  EXPECT_EQ(canonicalize(a).text, canonicalize(b).text);
  EXPECT_EQ(canonicalize(a).request.searchRuns, 0);
}

TEST(CanonicalizeTest, SearchTierKeysOnBudgetAndSeed) {
  PlanRequest a;
  a.tier = PlanTier::kSearch;
  a.searchRuns = 8;
  PlanRequest b = a;
  b.searchRuns = 16;
  PlanRequest c = a;
  c.searchSeed = 2;
  EXPECT_NE(canonicalize(a).text, canonicalize(b).text);
  EXPECT_NE(canonicalize(a).text, canonicalize(c).text);
}

TEST(CanonicalizeTest, FloatNoiseCannotSplitEntries) {
  PlanRequest a;
  a.ratio = Ratio{10, 3, 3};  // 10/3 is not representable exactly
  PlanRequest b;
  b.ratio = Ratio{10.0 / 3.0, 1, 1};
  EXPECT_EQ(canonicalize(a).text, canonicalize(b).text);
}

TEST(CanonicalizeTest, MalformedRequestsRejected) {
  PlanRequest bad;
  bad.n = 0;
  EXPECT_THROW(canonicalize(bad), std::invalid_argument);

  bad = PlanRequest{};
  bad.ratio = Ratio{1, 2, 1};  // P not the fastest
  EXPECT_THROW(canonicalize(bad), std::invalid_argument);

  bad = PlanRequest{};
  bad.ratio = Ratio{2, -1, 1};
  EXPECT_THROW(canonicalize(bad), std::invalid_argument);

  bad = PlanRequest{};
  bad.tier = PlanTier::kSearch;
  bad.searchRuns = 0;
  EXPECT_THROW(canonicalize(bad), std::invalid_argument);
}

TEST(CanonicalizeTest, NonFiniteSpeedsRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const Ratio& ratio :
       {Ratio{inf, inf, 1}, Ratio{inf, 1, 1}, Ratio{2, 1, inf},
        Ratio{std::nan(""), 1, 1}}) {
    PlanRequest bad;
    bad.ratio = ratio;
    EXPECT_THROW(canonicalize(bad), std::invalid_argument) << ratio.str();
  }
}

TEST(CanonicalizeTest, NBeyondTheModelBoundRejected) {
  // Tier A costs O(n), so nothing but the model's arithmetic limits n: at
  // 2,097,152 = 2^21 the n^3 MAC count overflows int64.
  PlanRequest req;
  req.ratio = Ratio{5, 2, 1};
  req.n = 2'097'152;
  EXPECT_THROW(canonicalize(req), std::invalid_argument);
  req.n = 2'097'151;
  EXPECT_EQ(canonicalize(req).request.n, 2'097'151);
}

TEST(CanonicalizeTest, DistinctQuestionsKeepDistinctKeys) {
  PlanRequest base;
  PlanRequest byN = base;
  byN.n = base.n + 1;
  PlanRequest byAlgo = base;
  byAlgo.algo = Algo::kPIO;
  PlanRequest byTier = base;
  byTier.tier = PlanTier::kSearch;
  PlanRequest byTopo = base;
  byTopo.topology = Topology::kStar;
  const std::string k = canonicalize(base).text;
  EXPECT_NE(k, canonicalize(byN).text);
  EXPECT_NE(k, canonicalize(byAlgo).text);
  EXPECT_NE(k, canonicalize(byTier).text);
  EXPECT_NE(k, canonicalize(byTopo).text);
}

// --- Near-boundary and degenerate ratios (the atlas-lookup feeders) -------
// Atlas cell assignment consumes the canonicalized ratio; these pin the
// behaviors its determinism relies on.

TEST(CanonicalizeTest, NearEqualPrAndRrStayOrderedAndStable) {
  // P_r ≈ R_r sits right on the canonical-form edge (P must be fastest).
  // Within %.6g resolution the noise folds onto the exact 3:3:1 key...
  PlanRequest exact;
  exact.ratio = Ratio{3, 3, 1};
  PlanRequest noisy = exact;
  noisy.ratio = Ratio{3.0000001, 3, 1};
  EXPECT_EQ(canonicalize(exact).text, canonicalize(noisy).text);
  // ...while a difference %.6g can resolve keeps its own key.
  PlanRequest distinct = exact;
  distinct.ratio = Ratio{3.0001, 3, 1};
  EXPECT_NE(canonicalize(exact).text, canonicalize(distinct).text);
}

TEST(CanonicalizeTest, ExtremeSkewRoundTripsThroughTheKey) {
  // 1000:1:1 — the far-corner heterogeneity the paper's Fig. 13 axis ends
  // well before. The key must carry it exactly (no overflow into
  // scientific-notation mismatches between equal requests).
  PlanRequest a;
  a.ratio = Ratio{1000, 1, 1};
  PlanRequest b;
  b.ratio = Ratio{3000, 3, 3};
  const CanonicalKey ka = canonicalize(a);
  EXPECT_EQ(ka.text, canonicalize(b).text);
  EXPECT_EQ(ka.request.ratio, (Ratio{1000, 1, 1}));
}

TEST(CanonicalizeTest, NearEqualRrAndSrSwapDeterministically) {
  // r ≈ s: whichever label is (even marginally) faster must land in the R
  // slot, and two requests that %.6g-round to the same ratio must share a
  // key regardless of which side of the swap they arrived on.
  PlanRequest a;
  a.ratio = Ratio{5, 2.0000001, 2};
  PlanRequest b;
  b.ratio = Ratio{5, 2, 2.0000001};
  EXPECT_EQ(canonicalize(a).text, canonicalize(b).text);
  const Ratio canon = canonicalize(a).request.ratio;
  EXPECT_GE(canon.r, canon.s);
}

TEST(CanonicalizeTest, CanonicalRatioIsIdempotent) {
  // Canonicalizing a canonicalized request must be the identity — the %.6g
  // rounding cannot drift a key under re-canonicalization (the oracle
  // re-derives keys from canonical requests in solveUncached).
  PlanRequest req;
  req.ratio = Ratio{10.0 / 3.0, 7.0 / 3.0, 1.0000004};
  const CanonicalKey once = canonicalize(req);
  const CanonicalKey twice = canonicalize(once.request);
  EXPECT_EQ(once.text, twice.text);
  EXPECT_EQ(once.request.ratio, twice.request.ratio);
  EXPECT_EQ(once.hash, twice.hash);
}

}  // namespace
}  // namespace pushpart
