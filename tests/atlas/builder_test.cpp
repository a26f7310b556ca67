#include "atlas/builder.hpp"

#include <gtest/gtest.h>

#include <atomic>

namespace pushpart {
namespace {

AtlasBuildOptions smallBuild() {
  AtlasBuildOptions options;
  options.spec.prMin = 1.0;
  options.spec.prMax = 8.0;
  options.spec.prSteps = 8;
  options.spec.rrMin = 1.0;
  options.spec.rrMax = 4.0;
  options.spec.rrSteps = 4;
  options.info.n = 48;
  options.threads = 1;
  return options;
}

TEST(AtlasBuilderTest, SolvesEveryValidCell) {
  AtlasBuildReport report;
  const auto atlas = buildAtlas(smallBuild(), &report);
  // Valid cells: sum over i of min(i+1, rrSteps).
  EXPECT_EQ(report.attempted, 26u);
  EXPECT_EQ(report.solved, 26u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(atlas->solvedCells(), 26u);
  // Every solved cell carries a positive surface value and a modeled time.
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 4; ++j) {
      if (!atlas->spec().validCell(i, j)) continue;
      const AtlasCell cell = *atlas->cell(i, j);
      EXPECT_TRUE(cell.solved);
      EXPECT_GT(cell.normVoc, 0.0);
      EXPECT_GT(cell.execSeconds, 0.0);
      EXPECT_EQ(cell.origin, CellOrigin::kBuilt);
    }
}

TEST(AtlasBuilderTest, RebuildsAreBitIdentical) {
  const auto a = buildAtlas(smallBuild());
  const auto b = buildAtlas(smallBuild());
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 4; ++j)
      if (a->spec().validCell(i, j)) {
        EXPECT_EQ(*a->cell(i, j), *b->cell(i, j))
            << "cell (" << i << "," << j << ") differs between rebuilds";
      }
}

TEST(AtlasBuilderTest, ParallelBuildMatchesSerialBuild) {
  AtlasBuildOptions parallel = smallBuild();
  parallel.threads = 4;
  const auto serial = buildAtlas(smallBuild());
  const auto threaded = buildAtlas(parallel);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 4; ++j)
      if (serial->spec().validCell(i, j)) {
        EXPECT_EQ(*serial->cell(i, j), *threaded->cell(i, j))
            << "thread interleaving changed cell (" << i << "," << j << ")";
      }
}

TEST(AtlasBuilderTest, TieSnappingFoldsIdenticalCostWinners) {
  // Block- and Traditional-Rectangle share one closed form
  // (1 + (R_r + S_r)/T): any cell either would win is an exact tie between
  // the two, and the snap must fold the tie group onto its canonical
  // representative — the smallest enum, Block-Rectangle. If
  // Traditional-Rectangle ever surfaces as a winner the tie shimmered
  // through, and neighbor comparison would flag fake crossover fronts
  // between identically-priced cells.
  const auto atlas = buildAtlas(smallBuild());
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 4; ++j) {
      if (!atlas->spec().validCell(i, j)) continue;
      EXPECT_NE(atlas->cell(i, j)->shape,
                CandidateShape::kTraditionalRectangle)
          << "tie with Block-Rectangle leaked at (" << i << "," << j << ")";
    }
}

TEST(AtlasBuilderTest, ProgressHookSeesEveryCell) {
  AtlasBuildOptions options = smallBuild();
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> lastTotal{0};
  options.onCell = [&](std::size_t done, std::size_t total) {
    (void)done;
    calls.fetch_add(1);
    lastTotal.store(total);
  };
  buildAtlas(options);
  EXPECT_EQ(calls.load(), 26u);
  EXPECT_EQ(lastTotal.load(), 26u);
}

TEST(AtlasBuilderTest, SearchBackedBuildRecordsConfirmation) {
  AtlasBuildOptions options;
  options.spec.prMin = 2.0;
  options.spec.prMax = 4.0;
  options.spec.prSteps = 3;
  options.spec.rrMin = 1.0;
  options.spec.rrMax = 2.0;
  options.spec.rrSteps = 2;
  options.info.n = 20;
  options.info.searchBacked = true;
  options.info.searchRuns = 2;
  options.threads = 1;
  AtlasBuildReport report;
  const auto atlas = buildAtlas(options, &report);
  EXPECT_EQ(report.solved, 6u);
  // A tiny DFA budget can land on either side of the candidate; the
  // contract here is that the cross-check ran and was recorded per cell,
  // and that a rebuild reproduces the same verdicts (per-cell seeds).
  const auto again = buildAtlas(options);
  std::size_t confirmed = 0;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 2; ++j) {
      if (!atlas->spec().validCell(i, j)) continue;
      EXPECT_EQ(atlas->cell(i, j)->searchConfirmed,
                again->cell(i, j)->searchConfirmed);
      if (atlas->cell(i, j)->searchConfirmed) ++confirmed;
    }
  EXPECT_EQ(report.searchConfirmed, confirmed);
}

TEST(AtlasBuilderTest, SolveAtlasCellRejectsInvalidCells) {
  const AtlasBuildOptions options = smallBuild();
  EXPECT_FALSE(
      solveAtlasCell(options.spec, options.info, 0, 3).has_value());
}

}  // namespace
}  // namespace pushpart
