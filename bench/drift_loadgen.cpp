// E18 — drift-adaptive serving: bounded regret under wandering speeds,
// a slow window and a kill/rejoin window, plus a constant-speed control.
//
// The harness drives the src/adapt drift drill (DESIGN.md §16) through a
// long, fully seeded scenario and fails the run unless the adaptive loop
// earns its keep:
//
//   * main run: three nodes whose speeds wander as a bounded multiplicative
//     random walk, with a 2.5x slow window on node 0 over the second fifth
//     of the drill and a kill/rejoin window on node 1 over [50%, 70%). The
//     AdaptiveSession sees only telemetry (sim/mmm_sim PhaseSamples remapped
//     to physical nodes); every phase is scored against an omniscient oracle
//     that re-selects the optimal shape at the exact true speeds.
//   * control run: the same scenario with wanderStep = 0 and no faults. A
//     well-damped session must replan exactly zero times — any replan here
//     is hysteresis failing to absorb estimator noise.
//
// Self-check (RESULT line, and the markers CI greps for):
//   REGRET_OK      cumulative Σ served / Σ omniscient <= --regret-bound;
//   RECONVERGED    every fault window saw a replan while live and the served
//                  plan returned to within tolerance of omniscient within
//                  reconvergePhases of the window closing;
//   CONTROL_OK     zero replans, zero invalidations in the control run.
// The markers print only when the bar passes, so a grep is a real check.
// Machine-readable output: --json=BENCH_drift.json (written by default): the
// scenario, both regret factors, one object per fault window, the main and
// control sessions' counters, and the three verdicts. A report that cannot
// be written is reported ("cannot write <path>") and exits 1.
//
//   ./drift_loadgen [--phases=300] [--seed=42] [--n=96] [--wander=0.05]
//                   [--stale-gap-pct=5] [--hysteresis=2] [--min-replan-s=0]
//                   [--regret-bound=1.25] [--json=BENCH_drift.json]
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "adapt/drill.hpp"
#include "serve/oracle.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"

using namespace pushpart;

namespace {

/// The shared scenario: knobs from flags, fault windows at fixed fractions
/// of the drill so --phases scales the whole story instead of clipping it.
DriftScenarioOptions scenarioFromFlags(const Flags& flags) {
  DriftScenarioOptions options;
  options.phases = std::max(20, static_cast<int>(flags.i64("phases", 300)));
  options.seed = static_cast<std::uint64_t>(flags.i64("seed", 42));
  options.n = std::max(12, static_cast<int>(flags.i64("n", 96)));
  options.wanderStep = flags.f64("wander", 0.05);
  options.regretBound = flags.f64("regret-bound", 1.25);
  options.session.staleGapPct = flags.f64("stale-gap-pct", 5.0);
  options.session.hysteresisPhases =
      static_cast<int>(flags.i64("hysteresis", 2));
  options.session.minReplanSeconds = flags.f64("min-replan-s", 0.0);

  const double duration = options.phases * options.phaseSeconds;
  options.faults.slowNodes.push_back(
      SlowNode{0, 0.2 * duration, 0.4 * duration, 2.5});
  options.faults.kills.push_back(NodeKill{1, 0.5 * duration, 0.7 * duration});
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string jsonPath = flags.str("json", "BENCH_drift.json");

  const DriftScenarioOptions scenario = scenarioFromFlags(flags);
  std::printf(
      "E18 (drift): %d phases at n=%d, wander %g, stale gap %g%%, "
      "hysteresis %d, regret bound %.3gx\n",
      scenario.phases, scenario.n, scenario.wanderStep,
      scenario.session.staleGapPct, scenario.session.hysteresisPhases,
      scenario.regretBound);
  for (const SlowNode& s : scenario.faults.slowNodes)
    std::printf("  fault: slow node %d by %gx over [%g, %g)s\n", s.node,
                s.factor, s.begin, s.end);
  for (const NodeKill& k : scenario.faults.kills)
    std::printf("  fault: kill node %d at %gs, rejoin %gs\n", k.node, k.at,
                k.rejoinAt.value_or(-1.0));

  // --- Main run: wander + faults -----------------------------------------
  OracleOptions oracleOptions;
  oracleOptions.machine.ratio = Ratio{8, 3, 1.5};
  Oracle oracle(oracleOptions);
  const DriftDrillReport report = runDriftDrill(oracle, scenario);

  std::printf("\nmain run: %llu replans, %llu invalidations, "
              "%llu stale verdicts over %llu phases\n",
              static_cast<unsigned long long>(report.stats.replans),
              static_cast<unsigned long long>(report.stats.invalidations),
              static_cast<unsigned long long>(report.stats.staleVerdicts),
              static_cast<unsigned long long>(report.stats.phases));
  std::printf("estimator: %llu clamped, %llu stall demotions, "
              "%llu death demotions, %llu recoveries\n",
              static_cast<unsigned long long>(report.estimator.clampedSamples),
              static_cast<unsigned long long>(report.estimator.stallDemotions),
              static_cast<unsigned long long>(report.estimator.deathDemotions),
              static_cast<unsigned long long>(report.estimator.recoveries));
  for (const FaultWindowReport& w : report.windows)
    std::printf("window: %s node %d [%g, %g)s — replan during: %s, "
                "reconverged: %s (after %d phases)\n",
                w.kill ? "kill" : "slow", w.node, w.begin, w.end,
                w.replanDuring ? "yes" : "NO", w.reconverged ? "yes" : "NO",
                w.reconvergedAfterPhases);

  const bool regretOk = report.regretOk(scenario.regretBound);
  bool windowsOk = !report.windows.empty();
  for (const FaultWindowReport& w : report.windows)
    windowsOk = windowsOk && w.replanDuring && w.reconverged;

  if (regretOk)
    std::printf("REGRET_OK factor=%.4fx (bound %.3gx)\n",
                report.regretFactor(), scenario.regretBound);
  else
    std::printf("REGRET_FAIL factor=%.4fx exceeds bound %.3gx\n",
                report.regretFactor(), scenario.regretBound);
  if (windowsOk)
    std::printf("RECONVERGED all %zu fault windows\n", report.windows.size());
  else
    std::printf("RECONVERGE_FAIL: a fault window missed its replan or "
                "never re-converged\n");

  // --- Control run: constant speeds, no faults ---------------------------
  DriftScenarioOptions control = scenario;
  control.wanderStep = 0.0;
  control.faults = ClusterFaultPlan{};
  Oracle controlOracle(oracleOptions);
  const DriftDrillReport controlReport = runDriftDrill(controlOracle, control);

  const bool controlOk = controlReport.stats.replans == 0 &&
                         controlReport.stats.invalidations == 0;
  std::printf("\ncontrol run: %llu replans, %llu invalidations, "
              "regret %.4fx over %llu constant-speed phases\n",
              static_cast<unsigned long long>(controlReport.stats.replans),
              static_cast<unsigned long long>(
                  controlReport.stats.invalidations),
              controlReport.regretFactor(),
              static_cast<unsigned long long>(controlReport.stats.phases));
  if (controlOk)
    std::printf("CONTROL_OK zero replans at constant speed\n");
  else
    std::printf("CONTROL_FAIL: the damped session replanned with nothing "
                "drifting\n");

  // --- BENCH_drift.json ---------------------------------------------------
  JsonWriter json(jsonPath);
  json.field("bench", "drift_loadgen").field("phases", scenario.phases)
      .field("n", scenario.n).field("seed", scenario.seed)
      .field("wander_step", scenario.wanderStep)
      .field("stale_gap_pct", scenario.session.staleGapPct)
      .field("hysteresis_phases", scenario.session.hysteresisPhases)
      .field("regret_bound", scenario.regretBound)
      .field("regret_factor", report.regretFactor())
      .field("control_regret_factor", controlReport.regretFactor())
      .beginArray("windows");
  for (const FaultWindowReport& w : report.windows)
    json.beginObject().field("fault", w.kill ? "kill" : "slow")
        .field("node", w.node).field("begin_s", w.begin).field("end_s", w.end)
        .field("replan_during", w.replanDuring)
        .field("reconverged", w.reconverged)
        .field("reconverged_after_phases", w.reconvergedAfterPhases).end();
  json.end();
  const std::pair<const char*, AdaptiveStats> sessions[] = {
      {"session", report.stats}, {"control", controlReport.stats}};
  for (const auto& [name, st] : sessions)
    json.beginObject(name).field("phases", st.phases)
        .field("warmup", st.warmupPhases)
        .field("stale_verdicts", st.staleVerdicts)
        .field("replans", st.replans)
        .field("hysteresis_holds", st.hysteresisHolds)
        .field("interval_holds", st.intervalHolds)
        .field("invalidations", st.invalidations).end();
  json.field("regret_ok", regretOk).field("reconverged", windowsOk)
      .field("control_ok", controlOk);
  if (!json.close()) return 1;
  std::cout << "report written to " << jsonPath << "\n";

  const bool ok = regretOk && windowsOk && controlOk;
  std::cout << (ok ? "\nRESULT: bounded regret, re-converged after every "
                     "fault window, quiet at constant speed.\n"
                   : "\nRESULT: drift-adaptation targets missed.\n");
  return ok ? 0 : 1;
}
