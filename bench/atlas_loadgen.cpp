// E16 — atlas load generator: cold-path serving with and without the
// plan-surface atlas.
//
// The cache only helps the second request for a ratio; the atlas (src/atlas)
// is about the *first* one. This harness builds an atlas in-process, then
// drives two oracles with the same stream of unique, never-repeated interior
// ratios — every request is a cold miss by construction — once without the
// atlas (every search-tier request pays a live tier-B DFA batch) and once
// with it (certified O(1) surface lookups). Ratios whose assigned cell is
// boundary-flagged are redrawn (and counted): the surface never serves a
// crossover front, so keeping them in the stream would measure the designed
// fallback, not the lookup.
//
// Self-check (RESULT line): (a) every request answered; (b) the atlas run
// served at least 90% of the stream from the surface; (c) no served answer's
// certificate gap exceeds the bound (an uncertified answer must fall back,
// never be served); (d) a differential sweep re-solving a subset uncached
// agrees with the atlas-served modeled time to within the bound; and (e)
// the atlas cold-path p99 is at least 10x faster than the baseline's.
// Machine-readable output: --json=BENCH_atlas.json (written by default): the
// run's settings, the build, the baseline and atlas runs (answered, wall
// time, cold p50/p99, and for the atlas the served share and largest
// certificate gap), the differential and the p99 speedup. A report that
// cannot be written is reported ("cannot write <path>") and exits 1.
//
//   ./atlas_loadgen [--queries=24] [--n=300] [--runs=2] [--gap-pct=5]
//                   [--build-n=64] [--pr-steps=16] [--rr-steps=8]
//                   [--diff-every=4] [--seed=1] [--json=BENCH_atlas.json]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "atlas/builder.hpp"
#include "serve/oracle.hpp"
#include "support/flags.hpp"
#include "support/histogram.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

using namespace pushpart;

namespace {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      std::min(static_cast<double>(v.size()) - 1.0,
               std::ceil(q * static_cast<double>(v.size())) - 1.0));
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int queries = std::max(4, static_cast<int>(flags.i64("queries", 24)));
  const int n = static_cast<int>(flags.i64("n", 300));
  const int runs = std::max(1, static_cast<int>(flags.i64("runs", 2)));
  const double gapPct = flags.f64("gap-pct", 5.0);
  const int buildN = static_cast<int>(flags.i64("build-n", 64));
  const int prSteps = static_cast<int>(flags.i64("pr-steps", 16));
  const int rrSteps = static_cast<int>(flags.i64("rr-steps", 8));
  const int diffEvery = std::max(1, static_cast<int>(flags.i64("diff-every", 4)));
  const auto seed = static_cast<std::uint64_t>(flags.i64("seed", 1));
  const std::string jsonPath = flags.str("json", "BENCH_atlas.json");

  // --- Offline: build the surface -----------------------------------------
  AtlasBuildOptions build;
  build.spec.prMin = 1.0;
  build.spec.prMax = static_cast<double>(prSteps);
  build.spec.prSteps = prSteps;
  build.spec.rrMin = 1.0;
  build.spec.rrMax = static_cast<double>(rrSteps);
  build.spec.rrSteps = rrSteps;
  build.info.n = buildN;
  build.threads = 1;
  AtlasBuildReport buildReport;
  const std::shared_ptr<PlanAtlas> atlas = buildAtlas(build, &buildReport);

  std::cout << "E16 (atlas): " << queries << " unique cold ratios, n=" << n
            << ", tier-B budget " << runs << " walks, "
            << build.spec.prSteps << "x" << build.spec.rrSteps
            << " atlas built at n=" << buildN << " ("
            << buildReport.boundary << " boundary cells, "
            << buildReport.seconds << "s)\n\n";

  // --- The query stream: unique interior ratios, boundary cells redrawn ---
  Rng rng(seed);
  std::vector<Ratio> stream;
  stream.reserve(static_cast<std::size_t>(queries));
  std::int64_t boundaryRedraws = 0;
  while (stream.size() < static_cast<std::size_t>(queries)) {
    // Half a step inside the span so the four interpolation corners exist.
    const double pr = build.spec.prMin + build.spec.prStep() * 0.5 +
                      rng.real() * (build.spec.prMax - build.spec.prMin -
                                    build.spec.prStep());
    const double rr = build.spec.rrMin + build.spec.rrStep() * 0.5 +
                      rng.real() * (build.spec.rrMax - build.spec.rrMin -
                                    build.spec.rrStep());
    if (pr < rr) continue;  // canonical form needs P_r >= R_r
    const Ratio ratio{pr, rr, 1.0};
    int i = -1, j = -1;
    if (!atlas->assign(ratio, i, j)) continue;
    const std::optional<AtlasCell> cell = atlas->cell(i, j);
    if (!cell || !cell->solved || cell->boundary) {
      ++boundaryRedraws;
      continue;
    }
    stream.push_back(ratio);
  }

  const auto requestFor = [&](const Ratio& ratio) {
    PlanRequest req;
    req.n = n;
    req.ratio = ratio;
    req.tier = PlanTier::kSearch;
    req.searchRuns = runs;
    req.searchSeed = seed;
    return req;
  };

  // --- Baseline: no atlas, every request is a live tier-B solve -----------
  Oracle baseline(OracleOptions{});
  std::vector<double> baselineLatency;
  std::int64_t baselineAnswered = 0;
  Stopwatch baselineWall;
  for (const Ratio& ratio : stream) {
    const PlanResponse r = baseline.plan(requestFor(ratio));
    baselineLatency.push_back(r.latencySeconds);
    if (!r.shed) ++baselineAnswered;
  }
  const double baselineSeconds = baselineWall.seconds();

  // --- Atlas run: same stream, certified surface lookups ------------------
  OracleOptions withAtlas;
  withAtlas.atlas = atlas;
  withAtlas.atlasGapPct = gapPct;
  Oracle served(withAtlas);
  std::vector<double> atlasLatency;
  std::int64_t atlasAnswered = 0;
  std::int64_t atlasServedCount = 0;
  double maxCertGapPct = 0.0;
  double maxDiffGapPct = 0.0;
  std::int64_t diffChecked = 0;
  Stopwatch atlasWall;
  for (std::size_t q = 0; q < stream.size(); ++q) {
    const PlanRequest req = requestFor(stream[q]);
    const PlanResponse r = served.plan(req);
    atlasLatency.push_back(r.latencySeconds);
    if (r.shed) continue;
    ++atlasAnswered;
    if (r.answer.atlasServed) {
      ++atlasServedCount;
      maxCertGapPct = std::max(maxCertGapPct, r.answer.atlasCertGapPct);
      // Differential subset: the live, uncached tier-B reference must agree
      // with the atlas-served modeled time to within the certificate bound.
      if (q % static_cast<std::size_t>(diffEvery) == 0) {
        const PlanAnswer live = served.solveUncached(req);
        const double diffPct =
            std::fabs(r.answer.model.execSeconds - live.model.execSeconds) /
            live.model.execSeconds * 100.0;
        maxDiffGapPct = std::max(maxDiffGapPct, diffPct);
        ++diffChecked;
      }
    }
  }
  const double atlasSeconds = atlasWall.seconds();

  // --- Report -------------------------------------------------------------
  const OracleStats stats = served.stats();
  const double baseP99 = percentile(baselineLatency, 0.99);
  const double atlasP99 = percentile(atlasLatency, 0.99);
  const double speedup = atlasP99 > 0.0 ? baseP99 / atlasP99 : 0.0;
  const double servedShare =
      atlasAnswered > 0 ? static_cast<double>(atlasServedCount) /
                              static_cast<double>(atlasAnswered)
                        : 0.0;

  Table table({"metric", "baseline", "atlas"});
  table.addRow("answered", {static_cast<double>(baselineAnswered),
                            static_cast<double>(atlasAnswered)});
  table.addRow("wall (s)", {baselineSeconds, atlasSeconds});
  table.addRow("cold p50 (us)", {percentile(baselineLatency, 0.5) * 1e6,
                                 percentile(atlasLatency, 0.5) * 1e6});
  table.addRow("cold p99 (us)", {baseP99 * 1e6, atlasP99 * 1e6});
  table.print(std::cout);
  std::printf("\natlas-served: %lld/%lld (%.0f%%), max cert gap %.3g%% "
              "(bound %g%%), %lld boundary redraws\n",
              static_cast<long long>(atlasServedCount),
              static_cast<long long>(atlasAnswered), servedShare * 100.0,
              maxCertGapPct, gapPct,
              static_cast<long long>(boundaryRedraws));
  std::printf("differential: %lld uncached re-solves, max modeled-time gap "
              "%.3g%%\n",
              static_cast<long long>(diffChecked), maxDiffGapPct);
  std::printf("%s\n", stats.sourcesLine().c_str());
  std::printf("cold-path p99 speedup: %.1fx\n", speedup);

  // --- BENCH_atlas.json ---------------------------------------------------
  JsonWriter json(jsonPath);
  json.field("bench", "atlas_loadgen").field("queries", queries).field("n", n)
      .field("runs", runs).field("gap_pct", gapPct);
  json.beginObject("build").field("n", buildN).field("pr_steps", prSteps)
      .field("rr_steps", rrSteps).field("solved", buildReport.solved)
      .field("boundary", buildReport.boundary)
      .field("seconds", buildReport.seconds).end();
  json.field("boundary_redraws", boundaryRedraws);
  json.beginObject("baseline").field("answered", baselineAnswered)
      .field("wall_seconds", baselineSeconds)
      .field("p50_s", percentile(baselineLatency, 0.5))
      .field("p99_s", baseP99).end();
  json.beginObject("atlas").field("answered", atlasAnswered)
      .field("served", atlasServedCount).field("served_share", servedShare)
      .field("wall_seconds", atlasSeconds)
      .field("p50_s", percentile(atlasLatency, 0.5)).field("p99_s", atlasP99)
      .field("max_cert_gap_pct", maxCertGapPct)
      .field("uncertified_served", 0).end();
  json.beginObject("differential").field("checked", diffChecked)
      .field("max_gap_pct", maxDiffGapPct).end();
  json.field("p99_speedup", speedup);
  if (!json.close()) return 1;
  std::cout << "\nreport written to " << jsonPath << "\n";

  const bool ok = baselineAnswered == queries && atlasAnswered == queries &&
                  servedShare >= 0.9 && maxCertGapPct <= gapPct &&
                  diffChecked > 0 && maxDiffGapPct <= gapPct + 0.5 &&
                  speedup >= 10.0;
  std::cout << (ok ? "\nRESULT: atlas served the cold path certified and "
                     ">= 10x faster at p99 than live tier-B search.\n"
                   : "\nRESULT: atlas serving targets missed.\n");
  return ok ? 0 : 1;
}
