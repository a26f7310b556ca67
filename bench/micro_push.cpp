// E17 — grid vs bitboard engine micro-benchmarks (self-checked).
//
// Side-by-side measurement of the two partition engines (DESIGN.md §15):
// the element-exact grid (grid/partition) and the bitboard state
// (grid/bit_partition) that the DFA batch driver and the serving tier run on
// by default. Every scenario drives BOTH engines through identical work and
// asserts identical verdicts/results before it reports a speedup — a
// divergence fails the bench, not just the differential suite.
//
// Scenarios:
//   * legality scans: failed tryPush attempts over every (slow processor,
//     direction) on a condensed state — the DFA's hot loop, re-proving that
//     no push applies before it can stop. The attempt runs directly on the
//     engine state (transactional, rolls back on failure, no copy), so this
//     isolates the representations: the grid scans O(N²) cells per attempt,
//     the bitboard 64 cells per word. Self-checked bar: >= --bar (default
//     10x).
//   * full DFA trajectories (headline): same seeded starts and schedules
//     end-to-end on both engines, identical walks required. Scattered starts
//     are where most of a walk's pushes happen, and word scans speed them up
//     as much as condensed ones. Self-checked floor: --traj-bar (default
//     1.5x).
//   * paper-scale batch: a --batch-runs DFA batch at n=--batch-n (default
//     1000, the paper's size) on the bitboard engine, required to finish
//     within --budget seconds.
//   * primitives: set-cell micro-costs on both engines (reported, not
//     gated: the bitboard's writes are the grid's plus four bit flips).
//
// Machine-readable output: --json=BENCH_micro_push.json (written by
// default). Exit code 0 iff every self-check passed (RESULT line).
//
//   ./micro_push [--n=1000] [--scan-reps=40] [--traj-n=160] [--traj-runs=6]
//                [--batch-n=1000] [--batch-runs=4] [--budget=120]
//                [--bar=10] [--traj-bar=1.5] [--seed=1]
//                [--json=BENCH_micro_push.json]
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "dfa/batch.hpp"
#include "grid/builder.hpp"
#include "push/beautify.hpp"
#include "push/direction.hpp"
#include "push/push.hpp"
#include "shapes/candidates.hpp"
#include "support/flags.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "verify/invariants.hpp"

using namespace pushpart;

namespace {

double safeRatio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int n = std::max(8, static_cast<int>(flags.i64("n", 1000)));
  const int scanReps = std::max(1, static_cast<int>(flags.i64("scan-reps", 40)));
  const int trajN = std::max(8, static_cast<int>(flags.i64("traj-n", 160)));
  const int trajRuns = std::max(1, static_cast<int>(flags.i64("traj-runs", 6)));
  const int batchN = std::max(8, static_cast<int>(flags.i64("batch-n", 1000)));
  const int batchRuns = std::max(1, static_cast<int>(flags.i64("batch-runs", 4)));
  const double budget = flags.f64("budget", 120.0);
  const double bar = flags.f64("bar", 10.0);
  const double trajBar = flags.f64("traj-bar", 1.5);
  const auto seed = static_cast<std::uint64_t>(flags.i64("seed", 1));
  const std::string jsonPath = flags.str("json", "BENCH_micro_push.json");

  const Ratio ratio{3, 2, 1};
  std::int64_t divergences = 0;

  std::cout << "E17 (micro_push): grid vs bitboard engine, n=" << n
            << ", bars " << bar << "x scans / " << trajBar
            << "x trajectories, batch n=" << batchN << " x " << batchRuns
            << " within " << budget << "s\n\n";

  // --- Legality scans on a condensed state -------------------------------
  // A canonical candidate is a condensed accept state: every tryPush walks
  // the full legality machinery and fails, rolling back to the identical
  // state. This is the hot loop of a condensed-phase DFA sweep — the walk
  // keeps re-proving that no push applies — and it runs on the engine state
  // in place, so the grid's O(N²) cell scans face the word scans directly.
  const Partition cond = makeCandidate(CandidateShape::kSquareCorner, n, ratio);
  Partition condG = cond;
  BitPartition condB(cond);
  double gridScanSeconds = 0.0;
  double bitsScanSeconds = 0.0;
  std::int64_t scans = 0;
  {
    Stopwatch sw;
    for (int rep = 0; rep < scanReps; ++rep)
      for (Proc x : kSlowProcs)
        for (Direction d : kAllDirections) {
          if (tryPush(condG, x, d).applied) ++divergences;  // candidate locks
          ++scans;
        }
    gridScanSeconds = sw.seconds();
    sw.reset();
    for (int rep = 0; rep < scanReps; ++rep)
      for (Proc x : kSlowProcs)
        for (Direction d : kAllDirections)
          if (tryPush(condB, x, d).applied) ++divergences;
    bitsScanSeconds = sw.seconds();
    // Both engines must still be exactly the candidate (rolled back clean).
    if (!(condG == cond) || !(condB.grid() == cond)) ++divergences;
  }
  const double scanSpeedup = safeRatio(gridScanSeconds, bitsScanSeconds);

  // --- Full DFA trajectories, lockstep ------------------------------------
  double gridTrajSeconds = 0.0;
  double bitsTrajSeconds = 0.0;
  std::int64_t trajPushes = 0;
  const Rng master(seed);
  for (int run = 0; run < trajRuns; ++run) {
    Rng rng = master.split(static_cast<std::uint64_t>(run));
    const Schedule schedule = Schedule::random(rng);
    const Partition q0 = rng.chance(0.5)
                             ? randomClusteredPartition(trajN, ratio, rng)
                             : randomPartition(trajN, ratio, rng);
    Stopwatch sw;
    const DfaResult g = runDfa(q0, schedule, {});
    gridTrajSeconds += sw.seconds();
    sw.reset();
    // The conversion is charged to the bitboard: it is what a caller holding
    // a grid pays to use the fast engine.
    const DfaResultT<BitPartition> b = runDfaT(BitPartition(q0), schedule, {});
    bitsTrajSeconds += sw.seconds();
    trajPushes += g.pushesApplied;

    if (g.stop != b.stop || g.pushesApplied != b.pushesApplied ||
        g.sweeps != b.sweeps || g.vocEnd != b.vocEnd ||
        !(b.final.grid() == g.final)) {
      ++divergences;
      std::cout << "DIVERGENCE: trajectory " << run << " (seed " << seed
                << "): grid " << g.pushesApplied << " pushes -> VoC "
                << g.vocEnd << ", bits " << b.pushesApplied << " -> "
                << b.vocEnd << "\n";
    }
  }
  const double trajSpeedup = safeRatio(gridTrajSeconds, bitsTrajSeconds);

  // --- Paper-scale batch on the fast engine -------------------------------
  BatchOptions batch;
  batch.n = batchN;
  batch.ratio = ratio;
  batch.runs = batchRuns;
  batch.threads = 0;  // all cores, like a real experiment
  batch.seed = seed;
  batch.engine = BatchEngine::kBits;
  std::int64_t batchBestVoc = std::numeric_limits<std::int64_t>::max();
  Stopwatch batchWall;
  const BatchSummary summary = runBatch(batch, [&](const BatchRun& run) {
    batchBestVoc =
        std::min(batchBestVoc, run.result.final.volumeOfCommunication());
  });
  const double batchSeconds = batchWall.seconds();

  // --- Primitive micro-costs (reported, not gated) ------------------------
  const int microN = 512;
  const std::int64_t microOps = 200000;
  double gridSetSeconds = 0.0;
  double bitsSetSeconds = 0.0;
  {
    Rng rng(seed);
    Partition g(microN);
    Stopwatch sw;
    for (std::int64_t op = 0; op < microOps; ++op)
      g.set(static_cast<int>(rng.below(static_cast<std::uint64_t>(microN))),
            static_cast<int>(rng.below(static_cast<std::uint64_t>(microN))),
            static_cast<Proc>(rng.below(3)));
    gridSetSeconds = sw.seconds();
    Rng rng2(seed);
    BitPartition b(microN);
    sw.reset();
    for (std::int64_t op = 0; op < microOps; ++op)
      b.set(static_cast<int>(rng2.below(static_cast<std::uint64_t>(microN))),
            static_cast<int>(rng2.below(static_cast<std::uint64_t>(microN))),
            static_cast<Proc>(rng2.below(3)));
    bitsSetSeconds = sw.seconds();
    if (!(b.grid() == g)) ++divergences;
  }

  // --- Report -------------------------------------------------------------
  Table table({"scenario", "grid", "bits", "grid/bits"});
  table.addRow("legality scan (us/scan)",
               {safeRatio(gridScanSeconds * 1e6, static_cast<double>(scans)),
                safeRatio(bitsScanSeconds * 1e6, static_cast<double>(scans)),
                scanSpeedup});
  table.addRow("DFA trajectory (ms/run)",
               {safeRatio(gridTrajSeconds * 1e3, trajRuns),
                safeRatio(bitsTrajSeconds * 1e3, trajRuns), trajSpeedup});
  table.addRow("set cell (ns/op)",
               {safeRatio(gridSetSeconds * 1e9, static_cast<double>(microOps)),
                safeRatio(bitsSetSeconds * 1e9, static_cast<double>(microOps)),
                safeRatio(gridSetSeconds, bitsSetSeconds)});
  table.print(std::cout);

  std::printf("\nlegality scans: %lld per engine on the condensed n=%d "
              "state, speedup %.1fx (bar %.1fx)\n",
              static_cast<long long>(scans), n, scanSpeedup, bar);
  std::printf("trajectories: %d lockstep runs at n=%d, %lld pushes, "
              "speedup %.1fx (bar %.1fx)\n",
              trajRuns, trajN, static_cast<long long>(trajPushes),
              trajSpeedup, trajBar);
  std::printf("batch: %d/%d runs at n=%d in %.1fs (budget %.0fs), best VoC "
              "%lld\n",
              summary.completed, batchRuns, batchN, batchSeconds, budget,
              static_cast<long long>(batchBestVoc));
  std::printf("divergences: %lld\n", static_cast<long long>(divergences));

  // --- BENCH_micro_push.json ----------------------------------------------
  {
    std::ofstream out(jsonPath);
    if (!out) {
      std::cerr << "cannot write " << jsonPath << "\n";
      return 1;
    }
    char head[768];
    std::snprintf(
        head, sizeof(head),
        "{\n"
        "  \"bench\": \"micro_push\",\n"
        "  \"n\": %d,\n"
        "  \"seed\": %llu,\n"
        "  \"scan\": {\"reps\": %d, \"scans\": %lld,\n"
        "    \"grid_seconds\": %.9g, \"bits_seconds\": %.9g,\n"
        "    \"speedup\": %.9g, \"bar\": %.9g},\n"
        "  \"trajectory\": {\"n\": %d, \"runs\": %d, \"pushes\": %lld,\n"
        "    \"grid_seconds\": %.9g, \"bits_seconds\": %.9g,\n"
        "    \"speedup\": %.9g, \"bar\": %.9g},\n",
        n, static_cast<unsigned long long>(seed), scanReps,
        static_cast<long long>(scans), gridScanSeconds, bitsScanSeconds,
        scanSpeedup, bar, trajN, trajRuns, static_cast<long long>(trajPushes),
        gridTrajSeconds, bitsTrajSeconds, trajSpeedup, trajBar);
    char tail[640];
    std::snprintf(
        tail, sizeof(tail),
        "  \"batch\": {\"n\": %d, \"runs\": %d, \"completed\": %d,\n"
        "    \"seconds\": %.9g, \"budget\": %.9g, \"best_voc\": %lld,\n"
        "    \"engine\": \"%s\"},\n"
        "  \"set_cell\": {\"n\": %d, \"ops\": %lld,\n"
        "    \"grid_seconds\": %.9g, \"bits_seconds\": %.9g},\n"
        "  \"divergences\": %lld\n"
        "}\n",
        batchN, batchRuns, summary.completed, batchSeconds, budget,
        static_cast<long long>(batchBestVoc), batchEngineName(batch.engine),
        microN, static_cast<long long>(microOps), gridSetSeconds,
        bitsSetSeconds, static_cast<long long>(divergences));
    out << head << tail;
    std::cout << "\nreport written to " << jsonPath << "\n";
  }

  const bool ok = divergences == 0 && scanSpeedup >= bar &&
                  trajSpeedup >= trajBar && summary.completed == batchRuns &&
                  summary.failures.empty() && batchSeconds <= budget;
  std::cout << (ok ? "\nRESULT: bitboard engine matched the grid "
                     "everywhere and cleared the speedup bars.\n"
                   : "\nRESULT: engine parity or speedup targets missed.\n");
  return ok ? 0 : 1;
}
