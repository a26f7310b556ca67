// The bitboard differential property suite: seeded lockstep Push and DFA
// trajectories on both engines — 1000+ small-grid trajectories plus every
// generator style at sizes around the 64- and 128-bit word edges — the
// corpus replay, and the threaded batch parity test that rides the TSan job.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "dfa/batch.hpp"
#include "push/oriented.hpp"
#include "serve/oracle.hpp"
#include "verify/generators.hpp"
#include "verify/invariants.hpp"

namespace pushpart {
namespace {

// (trajectories per style bucket) x (styles) x (push + dfa) >= 1000: the
// differential volume kept cheap by small grids. Each push-lockstep case
// compares the full state after every single attempt; each dfa-lockstep case
// compares complete walks.
constexpr int kTrajectoriesPerStyle = 130;

// Sizes on both sides of the first two word edges: a line of 63, 64 or 65
// cells ends inside, on, or one past word 0; 127–129 likewise for word 1.
constexpr int kWordEdgeSizes[] = {63, 64, 65, 127, 128, 129};

std::string caseName(int styleIdx, std::uint64_t seed, int n) {
  return std::string("style ") + genStyleName(static_cast<GenStyle>(styleIdx)) +
         " seed " + std::to_string(seed) + " n " + std::to_string(n);
}

TEST(BitsDifferentialTest, PushLockstepTrajectories) {
  int trajectories = 0;
  for (int styleIdx = 0; styleIdx < kNumGenStyles; ++styleIdx) {
    for (int t = 0; t < kTrajectoriesPerStyle; ++t) {
      const std::uint64_t seed =
          static_cast<std::uint64_t>(styleIdx) * 10000 +
          static_cast<std::uint64_t>(t);
      Rng rng(seed);
      const Ratio ratio = genRatio(rng);
      const int n = genSmallN(rng, 4, 14);
      const Partition q0 =
          genPartition(static_cast<GenStyle>(styleIdx), n, ratio, rng);
      const Schedule schedule = genSchedule(rng);
      const CheckReport report = checkBitsPushLockstep(q0, schedule);
      ASSERT_TRUE(report.ok())
          << caseName(styleIdx, seed, n) << ":\n" << report.str();
      ++trajectories;
    }
  }
  EXPECT_EQ(trajectories, kNumGenStyles * kTrajectoriesPerStyle);
}

TEST(BitsDifferentialTest, DfaLockstepTrajectories) {
  int trajectories = 0;
  for (int styleIdx = 0; styleIdx < kNumGenStyles; ++styleIdx) {
    for (int t = 0; t < kTrajectoriesPerStyle; ++t) {
      const std::uint64_t seed =
          500000 + static_cast<std::uint64_t>(styleIdx) * 10000 +
          static_cast<std::uint64_t>(t);
      Rng rng(seed);
      const Ratio ratio = genRatio(rng);
      const int n = genSmallN(rng, 4, 14);
      const Partition q0 =
          genPartition(static_cast<GenStyle>(styleIdx), n, ratio, rng);
      const Schedule schedule = genSchedule(rng);
      const CheckReport report = checkBitsDfaLockstep(q0, schedule);
      ASSERT_TRUE(report.ok())
          << caseName(styleIdx, seed, n) << ":\n" << report.str();
      ++trajectories;
    }
  }
  EXPECT_EQ(trajectories, kNumGenStyles * kTrajectoriesPerStyle);
}

TEST(BitsDifferentialTest, PushLockstepAcrossWordEdges) {
  // Every attempt is checked against the grid (state recount included), so
  // the sweep count is capped: the first sweeps already scan multi-word
  // lines with masks at every offset the rectangles produce.
  for (int styleIdx = 0; styleIdx < kNumGenStyles; ++styleIdx)
    for (int n : kWordEdgeSizes) {
      const std::uint64_t seed = 700000 +
                                 static_cast<std::uint64_t>(styleIdx) * 1000 +
                                 static_cast<std::uint64_t>(n);
      Rng rng(seed);
      const Ratio ratio = genRatio(rng);
      const Partition q0 =
          genPartition(static_cast<GenStyle>(styleIdx), n, ratio, rng);
      const Schedule schedule = genSchedule(rng);
      const CheckReport report = checkBitsPushLockstep(q0, schedule, 4);
      ASSERT_TRUE(report.ok())
          << caseName(styleIdx, seed, n) << ":\n" << report.str();
    }
}

TEST(BitsDifferentialTest, DfaLockstepAcrossWordEdges) {
  for (int styleIdx = 0; styleIdx < kNumGenStyles; ++styleIdx)
    for (int n : kWordEdgeSizes) {
      const std::uint64_t seed = 800000 +
                                 static_cast<std::uint64_t>(styleIdx) * 1000 +
                                 static_cast<std::uint64_t>(n);
      Rng rng(seed);
      const Ratio ratio = genRatio(rng);
      const Partition q0 =
          genPartition(static_cast<GenStyle>(styleIdx), n, ratio, rng);
      const Schedule schedule = genSchedule(rng);
      const CheckReport report = checkBitsDfaLockstep(q0, schedule);
      ASSERT_TRUE(report.ok())
          << caseName(styleIdx, seed, n) << ":\n" << report.str();
    }
}

/// A start whose active processor R has a rectangle ending exactly on
/// logical column `edge` under `dir`: R fills logical rows [4, n) × columns
/// [edge − 24, edge) except column edge − 2, which stays P's, and one S cell
/// in the far row; S also holds a small block above, P everything else.
/// Column edge − 2 has no R, so only the types whose activeDest lets a
/// present row stand in for the column (Three onwards) can use its cells —
/// and they scan without the column mask, while P also owns the cells just
/// past the rectangle's last column. Once the far row's edge − 2 is taken,
/// the S cell keeps that row from reading as full, the grid's walk moves to
/// the next row, and a scan reading one word too many takes column `edge`.
Partition wordEdgeStart(int n, int edge, Direction dir) {
  Partition q(n, Proc::P);
  OrientedView<Partition> view(q, dir);
  std::vector<CellUndo> ignored;
  for (int r = 4; r < n; ++r)
    for (int c = edge - 24; c < edge; ++c)
      if (c != edge - 2) view.set(r, c, Proc::R, ignored);
  view.set(n - 1, edge - 20, Proc::S, ignored);
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 8; ++c) view.set(r, c, Proc::S, ignored);
  return q;
}

TEST(BitsDifferentialTest, ActiveRectangleEndingOnAWordEdge) {
  for (Direction dir : kAllDirections)
    for (int edge : {64, 128}) {
      const int n = edge + 1;
      const Partition q0 = wordEdgeStart(n, edge, dir);
      ASSERT_EQ(OrientedView<const Partition>(q0, dir).rect(Proc::R).colEnd,
                edge)
          << directionName(dir);
      Schedule schedule;
      schedule.slots = {{Proc::R, dir}, {Proc::S, dir}};
      CheckReport report = checkBitsPushLockstep(q0, schedule, 8);
      report.merge(checkBitsDfaLockstep(q0, schedule));
      EXPECT_TRUE(report.ok()) << directionName(dir) << " edge " << edge
                               << ":\n" << report.str();
    }
}

TEST(BitsDifferentialTest, TraceSnapshotsRenderIdentically) {
  // Trace mode exercises the dfaTraceArt overloads on both engines.
  Rng rng(77);
  const Partition q0 = genPartition(GenStyle::kScattered, 10, Ratio{3, 2, 1},
                                    rng);
  const Schedule schedule = genSchedule(rng);
  DfaOptions options;
  options.traceEvery = 5;
  options.traceCells = 10;
  const DfaResult g = runDfa(q0, schedule, options);
  const DfaResultT<BitPartition> b =
      runDfaT(BitPartition(q0), schedule, options);
  ASSERT_EQ(g.trace.size(), b.trace.size());
  for (std::size_t s = 0; s < g.trace.size(); ++s)
    EXPECT_EQ(g.trace[s].art, b.trace[s].art) << "snapshot " << s;
}

TEST(BitsDifferentialTest, CorpusReplaysWithIdenticalVerdicts) {
  // Every checked-in counterexample must produce the same verdicts through
  // the bitboard engine — replayCorpusFile runs the cross-engine parity
  // checks (state agreement, fullyCondensed, pushAvailable per direction).
  const std::vector<std::string> files = corpusFiles(PUSHPART_CORPUS_DIR);
  ASSERT_FALSE(files.empty()) << "corpus missing at " << PUSHPART_CORPUS_DIR;
  for (const std::string& path : files) {
    const CheckReport report = replayCorpusFile(path);
    EXPECT_TRUE(report.ok()) << path << ":\n" << report.str();
  }
}

TEST(BitsDifferentialTest, SearchesDefaultToTheBitboardEngine) {
  EXPECT_EQ(BatchOptions{}.engine, BatchEngine::kBits);
  EXPECT_EQ(OracleOptions{}.searchEngine, BatchEngine::kBits);
  EXPECT_STREQ(batchEngineName(BatchEngine::kBits), "bits");
  EXPECT_STREQ(batchEngineName(BatchEngine::kGrid), "grid");
}

// Batch parity under real threads: the kBits and kGrid engines must produce
// bit-identical per-run results regardless of thread interleaving, and the
// threaded bitboard batch must match the serial one — on single-word lines
// (n = 24) and on lines spanning two words (n = 80). This test rides the
// TSan suite (see .github/workflows/ci.yml) to also prove the template
// engine's thread-safety on the bitboard state.
TEST(BitsDifferentialTest, ThreadedBatchesAreBitIdenticalAcrossEngines) {
  struct RunDigest {
    std::int64_t vocEnd = 0;
    std::int64_t pushes = 0;
    std::uint64_t hash = 0;

    bool operator==(const RunDigest&) const = default;
  };
  for (const auto& [n, runs] : {std::pair{24, 24}, std::pair{80, 8}}) {
    const auto collect = [n, runs](BatchEngine engine, int threads) {
      BatchOptions options;
      options.n = n;
      options.runs = runs;
      options.threads = threads;
      options.seed = 99;
      options.engine = engine;
      std::map<int, RunDigest> digests;
      const BatchSummary summary = runBatch(options, [&](const BatchRun& run) {
        digests[run.runIndex] = {run.result.vocEnd, run.result.pushesApplied,
                                 run.result.final.hash()};
      });
      EXPECT_TRUE(summary.allCompleted());
      EXPECT_EQ(digests.size(), static_cast<std::size_t>(runs));
      return digests;
    };

    const auto bitsThreaded = collect(BatchEngine::kBits, 4);
    const auto bitsSerial = collect(BatchEngine::kBits, 1);
    const auto gridThreaded = collect(BatchEngine::kGrid, 4);
    EXPECT_EQ(bitsThreaded, bitsSerial) << "n " << n;
    EXPECT_EQ(bitsThreaded, gridThreaded) << "n " << n;
  }
}

}  // namespace
}  // namespace pushpart
