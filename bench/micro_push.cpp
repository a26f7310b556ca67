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
//   * legality scans: failed tryPush attempts over every slot of a walk's
//     schedule on the condensed state that walk stopped in — the DFA's last
//     sweep, re-proving that no push applies before it can stop. The
//     attempt runs directly on the engine state (transactional, rolls back
//     on failure, no copy), so this isolates the representations: the grid
//     scans O(N²) cells per attempt, the bitboard 64 cells per word. Some
//     attempts must get past the bitboard's O(1) free-cell exit, or the
//     scenario would time the exit instead of a scan. Self-checked bar:
//     >= --bar (default 10x).
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
// default): n and seed, then one object per scenario (scan, trajectory,
// batch, set_cell) with its sizes, both engines' seconds, speedup and bar,
// and the divergence count. Exit code 0 iff every self-check passed (RESULT
// line); a report that cannot be written is reported ("cannot write
// <path>") and exits 1.
//
//   ./micro_push [--n=1000] [--scan-reps=40] [--traj-n=160] [--traj-runs=6]
//                [--batch-n=1000] [--batch-runs=4] [--budget=120]
//                [--bar=10] [--traj-bar=1.5] [--seed=1]
//                [--json=BENCH_micro_push.json]
#include <algorithm>
#include <array>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "dfa/batch.hpp"
#include "grid/builder.hpp"
#include "push/beautify.hpp"
#include "push/direction.hpp"
#include "push/engine.hpp"
#include "push/push.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
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

  // --- Legality scans on a condensed walk output -------------------------
  // One fixed-seed walk at n, stopped condensed and not beautified, keeps
  // the ragged edges and holes its pushes left. Every slot of its schedule
  // then fails, rolling back to the identical state: this is the walk's
  // last sweep, and it runs on the engine state in place, so the grid's
  // O(N²) cell scans face the word scans directly. An attempt the O(1)
  // free-cell exit ends scans nothing, so the bench counts the attempts
  // that get past it and fails unless some do.
  Rng scanRng(seed);
  const Schedule scanSchedule = Schedule::random(scanRng);
  DfaOptions unbeautified;
  unbeautified.beautifyResult = false;
  const DfaResultT<BitPartition> walk = runDfaT(
      BitPartition(randomPartition(n, ratio, scanRng)), scanSchedule,
      unbeautified);
  const Partition cond = walk.final.grid();
  Partition condG = cond;
  BitPartition condB = walk.final;
  double gridScanSeconds = 0.0;
  double bitsScanSeconds = 0.0;
  std::int64_t scans = 0;
  std::int64_t pastExit = 0;
  {
    for (const ScheduleSlot& slot : scanSchedule.slots) {
      const OrientedView<const BitPartition> view(condB, slot.dir);
      if (engine_detail::enoughFreeCells(view, slot.active,
                                         view.rect(slot.active)))
        pastExit += scanReps;
    }
    Stopwatch sw;
    for (int rep = 0; rep < scanReps; ++rep)
      for (const ScheduleSlot& slot : scanSchedule.slots) {
        if (tryPush(condG, slot.active, slot.dir).applied) ++divergences;
        ++scans;
      }
    gridScanSeconds = sw.seconds();
    sw.reset();
    for (int rep = 0; rep < scanReps; ++rep)
      for (const ScheduleSlot& slot : scanSchedule.slots)
        if (tryPush(condB, slot.active, slot.dir).applied) ++divergences;
    bitsScanSeconds = sw.seconds();
    // Both engines must still be exactly the walk's state (rolled back
    // clean).
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

  std::printf("\nlegality scans: %lld per engine on a %s n=%d walk's state "
              "(schedule %s), %lld past the free-cell exit, speedup %.1fx "
              "(bar %.1fx)\n",
              static_cast<long long>(scans), dfaStopName(walk.stop), n,
              scanSchedule.str().c_str(), static_cast<long long>(pastExit),
              scanSpeedup, bar);
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
  JsonWriter json(jsonPath);
  json.field("bench", "micro_push").field("n", n).field("seed", seed);
  json.beginObject("scan").field("reps", scanReps).field("scans", scans)
      .field("grid_seconds", gridScanSeconds)
      .field("bits_seconds", bitsScanSeconds).field("speedup", scanSpeedup)
      .field("bar", bar).field("past_free_cell_exit", pastExit).end();
  json.beginObject("trajectory").field("n", trajN).field("runs", trajRuns)
      .field("pushes", trajPushes).field("grid_seconds", gridTrajSeconds)
      .field("bits_seconds", bitsTrajSeconds).field("speedup", trajSpeedup)
      .field("bar", trajBar).end();
  json.beginObject("batch").field("n", batchN).field("runs", batchRuns)
      .field("completed", summary.completed).field("seconds", batchSeconds)
      .field("budget", budget).field("best_voc", batchBestVoc)
      .field("engine", batchEngineName(batch.engine)).end();
  json.beginObject("set_cell").field("n", microN).field("ops", microOps)
      .field("grid_seconds", gridSetSeconds)
      .field("bits_seconds", bitsSetSeconds).end();
  json.field("divergences", divergences);
  if (!json.close()) return 1;
  std::cout << "\nreport written to " << jsonPath << "\n";

  const bool ok = divergences == 0 && walk.stop == DfaStop::kCondensed &&
                  pastExit > 0 && scanSpeedup >= bar &&
                  trajSpeedup >= trajBar && summary.completed == batchRuns &&
                  summary.failures.empty() && batchSeconds <= budget;
  std::cout << (ok ? "\nRESULT: bitboard engine matched the grid "
                     "everywhere and cleared the speedup bars.\n"
                   : "\nRESULT: engine parity or speedup targets missed.\n");
  return ok ? 0 : 1;
}
