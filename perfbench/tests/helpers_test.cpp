// Tests of the benchmark's own helpers: the percentile and tail rules, the
// mode check, generator determinism, the span self-time computation and the
// product tolerance. Exits non-zero when any check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "exec/matrix.hpp"
#include "gen.hpp"
#include "serve/request.hpp"
#include "stats.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

using namespace perfbench;

// PlanRequest's defaulted == is deleted (StarConfig has none).
bool same(const pushpart::PlanRequest& a, const pushpart::PlanRequest& b) {
  return a.n == b.n && a.ratio == b.ratio && a.algo == b.algo &&
         a.topology == b.topology && a.star.hub == b.star.hub &&
         a.tier == b.tier && a.searchRuns == b.searchRuns &&
         a.searchSeed == b.searchSeed;
}

bool same(const std::vector<pushpart::PlanRequest>& a,
          const std::vector<pushpart::PlanRequest>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const auto& x, const auto& y) { return same(x, y); });
}

void testQuantiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  std::reverse(v.begin(), v.end());
  CHECK(quantile(v, 0.5) == 50);   // nearest rank: ceil(0.5 * 100) = 50
  CHECK(quantile(v, 0.9) == 90);
  CHECK(quantile(v, 0.99) == 99);
  CHECK(quantile(v, 1.0) == 100);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(quantile({}, 0.5) == 0);
  CHECK(samplesBeyond(100, 0.9) == 10);
  CHECK(samplesBeyond(100, 0.99) == 1);
  CHECK(samplesBeyond(1000, 0.99) == 10);
}

void testTailRule() {
  TailChoice t = chooseTail(1000);
  CHECK(t.q == 0.99 && t.beyond == 10 && t.enough && t.label() == "p99");
  t = chooseTail(999);  // p99 leaves only 9 beyond: fall back to p90
  CHECK(t.q == 0.9 && t.beyond == 99 && t.enough && t.label() == "p90");
  t = chooseTail(100);
  CHECK(t.q == 0.9 && t.beyond == 10 && t.enough);
  t = chooseTail(99);
  CHECK(t.q == 0.9 && !t.enough);
}

void testModePlacement() {
  // 80 fast, 15 middle, 5 slow samples.
  const std::vector<std::size_t> modes = {80, 15, 5};
  ModePlacement at = placeInModes(modes, 0.5, 5);
  CHECK(at.mode == 0 && at.distance == 30 && at.inside);
  at = placeInModes(modes, 0.9, 5);  // index 89 in [80, 95)
  CHECK(at.mode == 1 && at.distance == 5 && at.inside);
  at = placeInModes(modes, 0.9, 6);
  CHECK(at.mode == 1 && !at.inside);
  at = placeInModes(modes, 0.99, 2);  // index 98 in the last mode [95, 100)
  CHECK(at.mode == 2 && at.distance == 3 && at.inside);
  at = placeInModes({10}, 0.9, 5);  // one mode has no edges
  CHECK(at.mode == 0 && at.inside);
}

void testGeneratorDeterminism() {
  const PlanServeInputs a = makePlanServe(7, 500);
  const PlanServeInputs b = makePlanServe(7, 500);
  const PlanServeInputs c = makePlanServe(8, 500);
  CHECK(same(a.keys, b.keys) && same(a.stream, b.stream) &&
        a.keyOf == b.keyOf);
  CHECK(!same(a.keys, c.keys) && !same(a.stream, c.stream));
  CHECK(a.stream.size() == 500);
  // Every respelled form canonicalizes onto its key.
  for (std::size_t i = 0; i < a.stream.size(); ++i)
    CHECK(pushpart::canonicalize(a.stream[i]).text ==
          pushpart::canonicalize(a.keys[a.keyOf[i]]).text);
  std::size_t search = 0;
  for (const auto& key : a.keys) {
    search += key.tier == pushpart::PlanTier::kSearch;
    CHECK(key.ratio.valid() && key.ratio.p <= 20.0 && key.ratio.r <= 10.0);
  }
  CHECK(search == a.keys.size() / 20);

  const auto s1 = makeSearchCold(3, 200);
  CHECK(same(s1, makeSearchCold(3, 200)));
  CHECK(!same(s1, makeSearchCold(4, 200)));
  std::set<std::string> distinct;
  for (const auto& r : s1) {
    distinct.insert(pushpart::canonicalize(r).text);
    CHECK(r.n >= 96 && r.n <= 128 && r.tier == pushpart::PlanTier::kSearch);
  }
  CHECK(distinct.size() == s1.size());

  const auto p1 = makeProduct(5, 120);
  const auto p2 = makeProduct(5, 120);
  CHECK(p1.size() == 120);
  std::size_t large = 0;
  bool saw512 = false;
  for (std::size_t i = 0; i < p1.size(); ++i) {
    CHECK(same(p1[i].request, p2[i].request) &&
          p1[i].execSeed == p2[i].execSeed);
    large += p1[i].large;
    saw512 = saw512 || p1[i].request.n == 512;
    if (!p1[i].large)
      CHECK(p1[i].request.n >= 128 && p1[i].request.n <= 256);
  }
  CHECK(large == 18);  // exactly 15%
  CHECK(saw512);
}

void testSelfTimes() {
  Trace t;
  const int root = t.add("op", 0, 100, -1, 0);
  const int a = t.add("a", 10, 30, root, 0);
  t.add("b", 20, 50, root, 0);       // overlaps a: union [10, 50)
  t.add("c", 90, 120, root, 0);      // clipped to the root: [90, 100)
  t.add("a.child", 12, 18, a, 0);    // counts against a, not the root
  const std::vector<std::int64_t> self = t.selfTimes();
  CHECK(self[static_cast<std::size_t>(root)] == 100 - 40 - 10);
  CHECK(self[static_cast<std::size_t>(a)] == 20 - 6);
  CHECK(self[2] == 30 && self[3] == 30 && self[4] == 6);

  Trace nested;  // a child wider than its parent leaves no negative self
  const int p = nested.add("p", 5, 10, -1, 1);
  nested.add("q", 0, 20, p, 1);
  CHECK(nested.selfTimes()[static_cast<std::size_t>(p)] == 0);
}

void testTolerance() {
  const int n = 96;
  pushpart::Rng rng(11);
  const pushpart::Matrix a = pushpart::randomMatrix(n, rng);
  const pushpart::Matrix b = pushpart::randomMatrix(n, rng);
  const pushpart::Matrix ref = pushpart::multiplySerial(a, b);
  // The same products summed in reverse order: a reassociated result.
  double worst = 0.0, wrong = 0.0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      double acc = 0.0, missing = 0.0;
      for (int k = n - 1; k >= 0; --k) {
        acc += a.at(i, k) * b.at(k, j);
        if (k != 0) missing += a.at(i, k) * b.at(k, j);
      }
      worst = std::max(worst, std::fabs(acc - ref.at(i, j)));
      wrong = std::max(wrong, std::fabs(missing - ref.at(i, j)));
    }
  CHECK(worst <= reassociationTolerance(n));
  CHECK(wrong > reassociationTolerance(n));  // one dropped term is caught
}

}  // namespace

int main() {
  testQuantiles();
  testTailRule();
  testModePlacement();
  testGeneratorDeterminism();
  testSelfTimes();
  testTolerance();
  if (failures == 0) std::puts("perfbench helpers: all checks passed");
  return failures == 0 ? 0 : 1;
}
