#include "serve/request.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/models.hpp"
#include "support/fnv.hpp"
#include "support/rng.hpp"

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

// --- The key against its printf formulation ---------------------------------
// canonicalize() rounds and spells the key with <charconv>. Every cached,
// persisted and ring-routed key depends on its bytes, so they are pinned to
// the formulation they replaced, kept here as the reference: "%.6g" through
// snprintf and strtod back for the rounding, and the key concatenated from
// std::to_string and a printf formatNumber.

std::string printfFormatNumber(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9.0e15)
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  else
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

double printfRound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return std::strtod(buf, nullptr);
}

CanonicalKey printfCanonicalize(const PlanRequest& req) {
  PlanRequest canon = req;
  if (canon.ratio.r < canon.ratio.s) {
    std::swap(canon.ratio.r, canon.ratio.s);
    if (canon.star.hub == Proc::R)
      canon.star.hub = Proc::S;
    else if (canon.star.hub == Proc::S)
      canon.star.hub = Proc::R;
  }
  canon.ratio = canon.ratio.normalized();
  canon.ratio.p = printfRound(canon.ratio.p);
  canon.ratio.r = printfRound(canon.ratio.r);
  canon.ratio.s = 1.0;
  if (canon.topology == Topology::kFullyConnected) canon.star.hub = Proc::P;
  if (canon.tier == PlanTier::kFast) {
    canon.searchRuns = 0;
    canon.searchSeed = 0;
  }
  CanonicalKey key;
  key.request = canon;
  key.text = "plan/v1|n=" + std::to_string(canon.n) +
             "|ratio=" + printfFormatNumber(canon.ratio.p) + ":" +
             printfFormatNumber(canon.ratio.r) + ":" +
             printfFormatNumber(canon.ratio.s) +
             "|algo=" + algoName(canon.algo) +
             "|topo=" + topologyName(canon.topology) +
             "|hub=" + std::string(1, procName(canon.star.hub)) +
             "|tier=" + planTierName(canon.tier) +
             "|runs=" + std::to_string(canon.searchRuns) +
             "|seed=" + std::to_string(canon.searchSeed);
  key.hash = fnv1a(key.text);
  return key;
}

/// Empty when `req` canonicalizes exactly as the reference does: the same
/// request (ratio compared bit for bit), text and hash.
std::string keyMismatch(const PlanRequest& req) {
  const CanonicalKey got = canonicalize(req);
  const CanonicalKey want = printfCanonicalize(req);
  const auto bits = [](const Ratio& r) {
    return std::array<std::uint64_t, 3>{std::bit_cast<std::uint64_t>(r.p),
                                        std::bit_cast<std::uint64_t>(r.r),
                                        std::bit_cast<std::uint64_t>(r.s)};
  };
  const PlanRequest& g = got.request;
  const PlanRequest& w = want.request;
  if (bits(g.ratio) != bits(w.ratio) || g.n != w.n || g.algo != w.algo ||
      g.topology != w.topology || g.star.hub != w.star.hub ||
      g.tier != w.tier || g.searchRuns != w.searchRuns ||
      g.searchSeed != w.searchSeed || got.text != want.text ||
      got.hash != want.hash)
    return "request " + req.ratio.str() + " n=" + std::to_string(req.n) +
           ": got " + got.text + ", want " + want.text;
  return "";
}

TEST(CanonicalKeyBytesTest, EdgeValuesMatchThePrintfFormulation) {
  // Rounding boundaries ("%.6g" carries 999999.5 up to 1e+06, which the key
  // spells in full), halfway cases, the exponent-form integers on both sides
  // of 9e15, and a quotient that overflows to inf.
  const std::vector<double> edges = {
      1.0,        1.0000004999, 1.0000005,  1.0000005001, 7.0 / 3.0,
      10.0 / 3.0, 17.52136752,  99999.95,   123456.5,     999999.4,
      999999.5,   999999.6,     1e6,        1e6 + 1.0,    1234565.0,
      2.5e7 / 3.0, 9e15 - 2.0,  9e15,       9e15 + 2.0,   9007199254740993.0,
      1e20,       1.0e300,      std::numeric_limits<double>::max()};
  const std::vector<double> scales = {1.0, 3.0, 1.3, 1e-300, 0.1};
  int checked = 0;
  for (const double p : edges)
    for (const double r : edges) {
      if (r > p) continue;
      for (const double s : scales) {
        PlanRequest req;
        req.ratio = Ratio{p * s, r * s, s};
        if (!req.ratio.valid() || !std::isfinite(req.ratio.p)) continue;
        EXPECT_EQ(keyMismatch(req), "");
        std::swap(req.ratio.r, req.ratio.s);
        EXPECT_EQ(keyMismatch(req), "");
        checked += 2;
      }
    }
  PlanRequest overflow;
  overflow.ratio = Ratio{1e300, 1.0, 1e-300};  // p/s overflows to inf
  EXPECT_EQ(keyMismatch(overflow), "");
  EXPECT_GT(checked, 1000);
}

TEST(CanonicalKeyBytesTest, RandomRequestsMatchThePrintfFormulation) {
  // Speeds spread over e^±20 in both R/S orders, with every algorithm,
  // topology, hub and tier, and random budgets and seeds.
  Rng rng(20260923);
  int mismatches = 0;
  for (int i = 0; i < 200'000; ++i) {
    PlanRequest req;
    req.n = static_cast<int>(rng.chance(0.5) ? rng.range(1, 4096)
                                             : rng.range(1, kMaxModelN));
    const double a = std::exp(rng.real() * 40.0 - 20.0);
    const double b = std::exp(rng.real() * 40.0 - 20.0);
    const double top = std::max(a, b);
    req.ratio = Ratio{rng.chance(0.1) ? top : top * std::exp(rng.real() * 20.0),
                      a, b};
    req.algo = kAllAlgos[rng.below(kAllAlgos.size())];
    req.topology = rng.chance(0.5) ? Topology::kStar : Topology::kFullyConnected;
    req.star.hub = kAllProcs[rng.below(kAllProcs.size())];
    req.tier = rng.chance(0.5) ? PlanTier::kSearch : PlanTier::kFast;
    req.searchRuns = static_cast<int>(rng.range(1, 1'000'000));
    req.searchSeed = rng();
    const std::string mismatch = keyMismatch(req);
    if (!mismatch.empty() && ++mismatches <= 5) ADD_FAILURE() << mismatch;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(CanonicalKeyBytesTest, PinnedKeysAndHashes) {
  // A rounded, rescaled tier-A request (CI checks the same key at the CLI)
  // and a tier-B request whose rounded P is an integer past 1e6.
  PlanRequest fast;
  fast.n = 90;
  fast.ratio = Ratio{22.7777777, 4.4, 1.3};
  fast.algo = Algo::kSCO;
  const CanonicalKey a = canonicalize(fast);
  EXPECT_EQ(a.text,
            "plan/v1|n=90|ratio=17.5214:3.38462:1|algo=SCO|"
            "topo=fully-connected|hub=P|tier=fast|runs=0|seed=0");
  EXPECT_EQ(a.hash, 0x00017f995e3a98e3ull);

  PlanRequest search;
  search.n = 90;
  search.ratio = Ratio{2.5e7, 3, 3};
  search.tier = PlanTier::kSearch;
  search.searchRuns = 2;
  search.searchSeed = 1;
  const CanonicalKey b = canonicalize(search);
  EXPECT_EQ(b.text,
            "plan/v1|n=90|ratio=8333330:1:1|algo=SCB|topo=fully-connected|"
            "hub=P|tier=search|runs=2|seed=1");
  EXPECT_EQ(b.hash, 0xac3875d5275aca9bull);
}

}  // namespace
}  // namespace pushpart
