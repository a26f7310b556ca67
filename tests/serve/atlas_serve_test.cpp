// The atlas serving tier through the Oracle: certified lookups, the
// fall-back ladder to live search, source accounting, and snapshot
// round-tripping of atlas provenance.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "atlas/builder.hpp"
#include "serve/oracle.hpp"

namespace pushpart {
namespace {

constexpr int kBuildN = 48;

std::shared_ptr<PlanAtlas> servingAtlas() {
  AtlasBuildOptions options;
  options.spec.prMin = 1.0;
  options.spec.prMax = 12.0;
  options.spec.prSteps = 12;
  options.spec.rrMin = 1.0;
  options.spec.rrMax = 4.0;
  options.spec.rrSteps = 4;
  options.info.n = kBuildN;
  options.threads = 1;
  return buildAtlas(options);
}

OracleOptions atlasOptions(std::shared_ptr<PlanAtlas> atlas) {
  OracleOptions options;
  options.atlas = std::move(atlas);
  options.atlasPrefetch = false;  // keep the test single-threaded
  return options;
}

PlanRequest searchRequest(const Ratio& ratio) {
  PlanRequest req;
  req.n = kBuildN;
  req.ratio = ratio;
  req.tier = PlanTier::kSearch;
  req.searchRuns = 2;
  return req;
}

/// A solved, off-boundary cell of `atlas` — the kind a lookup serves.
std::pair<int, int> servableCell(const PlanAtlas& atlas) {
  const AtlasGridSpec& spec = atlas.spec();
  for (int i = 0; i < spec.prSteps; ++i)
    for (int j = 0; j < spec.rrSteps; ++j) {
      if (!spec.validCell(i, j)) continue;
      const auto cell = atlas.cell(i, j);
      if (cell && cell->solved && !cell->boundary) return {i, j};
    }
  ADD_FAILURE() << "atlas has no servable cell";
  return {-1, -1};
}

TEST(AtlasServeTest, SourcesLineFormatIsPinned) {
  // Dashboards and the CI smoke grep parse this line; changing it is a
  // breaking interface change, not a cosmetic one.
  OracleStats s;
  s.sourceAtlas = 1;
  s.sourceCache = 2;
  s.sourceTierA = 3;
  s.sourceTierB = 4;
  s.shed = 5;
  EXPECT_EQ(s.sourcesLine(),
            "sources: atlas=1 cache=2 tier-A=3 tier-B=4 shed=5");
}

TEST(AtlasServeTest, CertifiedLookupServesAndCaches) {
  const auto atlas = servingAtlas();
  const auto [ci, cj] = servableCell(*atlas);
  ASSERT_GE(ci, 0);
  Oracle oracle(atlasOptions(atlas));
  const PlanRequest req = searchRequest(atlas->spec().ratioAt(ci, cj));

  const PlanResponse cold = oracle.plan(req);
  EXPECT_FALSE(cold.cacheHit);
  ASSERT_TRUE(cold.answer.atlasServed);
  EXPECT_EQ(cold.answer.atlasI, ci);
  EXPECT_EQ(cold.answer.atlasJ, cj);
  EXPECT_LE(cold.answer.atlasCertGapPct, oracle.options().atlasGapPct);
  EXPECT_TRUE(cold.answer.fullFidelity());
  EXPECT_EQ(cold.answer.shape, atlas->cell(ci, cj)->shape);

  // Atlas-certified answers are full fidelity, so they are cacheable; the
  // replay is bit-identical, provenance included.
  const PlanResponse warm = oracle.plan(req);
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.answer, cold.answer);

  const OracleStats stats = oracle.stats();
  EXPECT_EQ(stats.atlasServed, 1u);
  EXPECT_EQ(stats.sourceAtlas, 1u);
  EXPECT_EQ(stats.sourceCache, 1u);
  EXPECT_EQ(stats.sourceTierB, 0u);
}

TEST(AtlasServeTest, OutOfSpanRatioFallsBackToLiveSearch) {
  Oracle oracle(atlasOptions(servingAtlas()));
  const PlanResponse response =
      oracle.plan(searchRequest(Ratio{50, 1, 1}));  // beyond prMax = 12
  EXPECT_FALSE(response.answer.atlasServed);
  EXPECT_EQ(response.answer.servedTier, PlanTier::kSearch);
  const OracleStats stats = oracle.stats();
  EXPECT_EQ(stats.atlasMisses, 1u);
  EXPECT_EQ(stats.sourceTierB, 1u);
  EXPECT_EQ(stats.sourceAtlas, 0u);
}

TEST(AtlasServeTest, BoundaryCellsFallBackToLiveSearch) {
  const auto atlas = servingAtlas();
  const auto boundaries = atlas->boundaryCells();
  if (boundaries.empty()) GTEST_SKIP() << "atlas grew no crossover front";
  const auto [bi, bj] = boundaries.front();
  Oracle oracle(atlasOptions(atlas));
  const PlanResponse response =
      oracle.plan(searchRequest(atlas->spec().ratioAt(bi, bj)));
  EXPECT_FALSE(response.answer.atlasServed);
  EXPECT_EQ(response.answer.servedTier, PlanTier::kSearch);
  EXPECT_TRUE(response.answer.fullFidelity());
  const OracleStats stats = oracle.stats();
  EXPECT_EQ(stats.atlasMisses, 1u);
  EXPECT_EQ(stats.atlasCells.boundary, 1u);
}

TEST(AtlasServeTest, FastTierNeverConsultsTheAtlas) {
  const auto atlas = servingAtlas();
  Oracle oracle(atlasOptions(atlas));
  PlanRequest req = searchRequest(atlas->spec().ratioAt(4, 0));
  req.tier = PlanTier::kFast;
  req.searchRuns = 0;
  const PlanResponse response = oracle.plan(req);
  EXPECT_FALSE(response.answer.atlasServed);
  const OracleStats stats = oracle.stats();
  EXPECT_EQ(stats.sourceTierA, 1u);
  EXPECT_EQ(stats.atlasCells.lookups, 0u)
      << "a fast-tier request reached the atlas";
}

TEST(AtlasServeTest, SnapshotRoundTripsAtlasProvenance) {
  const std::string path =
      ::testing::TempDir() + "/pushpart_atlas_warm.snap";
  const auto atlas = servingAtlas();
  const auto [ci, cj] = servableCell(*atlas);
  const PlanRequest req = searchRequest(atlas->spec().ratioAt(ci, cj));

  Oracle original(atlasOptions(atlas));
  const PlanResponse cold = original.plan(req);
  ASSERT_TRUE(cold.answer.atlasServed);
  ASSERT_GT(original.saveSnapshot(path), 0u);

  // The restarted oracle has NO atlas: the provenance must come back from
  // the snapshot, not from a fresh lookup.
  Oracle restarted{OracleOptions{}};
  const SnapshotLoadReport report = restarted.tryLoadSnapshot(path);
  EXPECT_GE(report.loaded, 1u);
  const PlanResponse warm = restarted.plan(req);
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.answer, cold.answer);
  EXPECT_TRUE(warm.answer.atlasServed);
  EXPECT_EQ(warm.answer.atlasI, ci);
  std::remove(path.c_str());
}

TEST(AtlasServeTest, SourceBreakdownSumsToEveryCall) {
  // The invariant that keeps the atlas tier from masking shed accounting:
  // every plan() call lands in exactly one source bucket (with shed).
  const auto atlas = servingAtlas();
  const auto [ci, cj] = servableCell(*atlas);
  Oracle oracle(atlasOptions(atlas));
  std::uint64_t calls = 0;
  const Ratio ratios[] = {atlas->spec().ratioAt(ci, cj),  // atlas
                          atlas->spec().ratioAt(ci, cj),  // cache hit
                          Ratio{50, 1, 1},                // tier B
                          Ratio{40, 2, 1}};               // tier B
  for (const Ratio& r : ratios) {
    oracle.plan(searchRequest(r));
    ++calls;
  }
  PlanRequest fast = searchRequest(atlas->spec().ratioAt(ci, cj));
  fast.tier = PlanTier::kFast;
  fast.searchRuns = 0;
  oracle.plan(fast);
  ++calls;

  const OracleStats s = oracle.stats();
  EXPECT_EQ(s.sourceAtlas + s.sourceCache + s.sourceTierA + s.sourceTierB +
                s.shed,
            calls);
  EXPECT_EQ(s.sourceAtlas, 1u);
  EXPECT_EQ(s.sourceCache, 1u);
  EXPECT_EQ(s.sourceTierA, 1u);
  EXPECT_EQ(s.sourceTierB, 2u);
  EXPECT_EQ(s.shed, 0u);
}

}  // namespace
}  // namespace pushpart
