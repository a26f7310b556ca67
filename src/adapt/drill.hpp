// The drift drill: a long-running, fully seeded serving scenario that
// exercises the adaptive loop end to end and *checks itself*.
//
// Three physical nodes (ids = procIndex: 0 = R, 1 = S, 2 = P) run one
// matrix-multiply phase after another while their speeds wander as a bounded
// multiplicative random walk and a ClusterFaultPlan kills, revives and
// throttles them. Each phase the drill
//
//   1. computes the ground-truth effective speeds (wander ÷ slow-window
//      factor; a killed node drops to a floor fraction of the fastest
//      survivor),
//   2. simulates the *currently served* plan at those speeds through
//      sim/mmm_sim (machine.ratio = the speed of the node playing each
//      logical role) and captures the telemetry PhaseSample it emits,
//   3. remaps the sample from logical roles back to physical nodes via the
//      session's planOrder, stamps ground-truth death (standing in for the
//      cluster failure detector of src/cluster), and feeds it to the
//      AdaptiveSession on a FakeClock advanced phaseSeconds per phase,
//   4. scores the phase: the served shape at its planned ratio, priced by
//      evalModel (model/models.hpp) on the per-role machine of step 2,
//      against an omniscient per-phase oracle that re-selects the optimal
//      shape at the exact true speeds — both sides under the drill's own
//      algorithm and topology, so regret compares like with like.
//
// The self-checks (bench/drift_loadgen fails the run on any of them):
//   * cumulative regret Σ servedCost / Σ omniscientCost stays within
//     regretBound (default 1.25×);
//   * after every fault window the session re-converges — within
//     reconvergePhases of the window closing, the served plan costs within
//     reconvergeTolerancePct of omniscient — and some replan fired while
//     the window was in force;
//   * a control run (wanderStep = 0, no faults) replans exactly zero times.
//
// Wander bounds and the fault plan must keep physical node 2 the fastest at
// all times (kills and slow windows only on nodes 0/1): the simulator
// requires a valid ratio (P fastest), and a real deployment that loses its
// fastest node is PR 5's cluster-failover story, not this drill's.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "adapt/session.hpp"
#include "sim/fault.hpp"

namespace pushpart {

struct DriftScenarioOptions {
  int phases = 300;
  double phaseSeconds = 1.0;  ///< FakeClock advance per phase.
  std::uint64_t seed = 42;    ///< Wander stream seed.
  int n = 96;
  Algo algo = Algo::kSCB;

  /// Baseline absolute speeds by physical node in procSlot order
  /// {node 0 (R), node 1 (S), node 2 (P)}. Absolute magnitudes are fine:
  /// only relative speeds enter plans, and regret is a cost *ratio*.
  std::array<double, kNumProcs> baseSpeed = {3.0, 1.5, 8.0};
  /// Maximum per-phase multiplicative log-step of the speed wander; 0
  /// freezes the speeds (the control run).
  double wanderStep = 0.05;
  /// Reflecting wander bounds per node (procSlot order). Defaults keep node
  /// 2 strictly fastest.
  std::array<double, kNumProcs> wanderMin = {1.2, 0.8, 6.0};
  std::array<double, kNumProcs> wanderMax = {4.8, 2.4, 10.0};

  /// Node-level fault schedule on drill time (node id = procIndex). Node 2
  /// must not be killed or slowed (see header comment); validate() enforces
  /// it. Flaps/partitions/heartbeats are ignored — this drill models
  /// compute-speed drift, not reachability.
  ClusterFaultPlan faults;
  /// A killed node's effective speed, as a fraction of the fastest
  /// survivor's (matches RatioEstimatorOptions::demotedSpeedFraction).
  double deadSpeedFloorFraction = 0.02;

  /// Session knobs. base.n/algo and the clock are overwritten by the drill;
  /// base.ratio is seeded from baseSpeed.
  AdaptiveSessionOptions session;

  /// Self-check bounds.
  double regretBound = 1.25;
  int reconvergePhases = 6;
  double reconvergeTolerancePct = 10.0;

  /// Throws std::invalid_argument on degenerate counts/bounds or a fault
  /// plan touching node 2.
  void validate() const;
};

/// One scored phase.
struct DriftPhaseRecord {
  int phase = 0;
  double at = 0.0;                                ///< Drill-clock seconds.
  std::array<double, kNumProcs> trueSpeed{};      ///< Effective, procSlot order.
  std::array<bool, kNumProcs> dead{};             ///< Ground-truth kill state.
  bool stale = false;
  DriftReason reason = DriftReason::kNoPlan;
  bool replanned = false;
  CandidateShape servedShape = CandidateShape::kSquareCorner;
  double servedCost = 0.0;     ///< Frozen plan's modeled time at true speeds.
  CandidateShape bestShape = CandidateShape::kSquareCorner;
  double bestCost = 0.0;       ///< Omniscient per-phase optimum, same model.
};

/// One fault window's recovery verdict.
struct FaultWindowReport {
  int node = 0;
  bool kill = false;  ///< false = slow window.
  double begin = 0.0;
  double end = 0.0;            ///< Rejoin / window end (drill end if never).
  bool replanDuring = false;   ///< A replan fired while the window was live.
  bool reconverged = false;    ///< Served cost back within tolerance of best.
  int reconvergedAfterPhases = -1;  ///< Phases past the window close (-1 = no).
};

struct DriftDrillReport {
  std::vector<DriftPhaseRecord> records;
  std::vector<FaultWindowReport> windows;
  double servedTotal = 0.0;
  double bestTotal = 0.0;
  AdaptiveStats stats;                   ///< Session counters at drill end.
  RatioEstimator::Counters estimator;    ///< Estimator counters at drill end.
  std::vector<AdaptiveEvent> events;     ///< The session's decision log.

  /// Cumulative regret factor: 1.0 = matched the omniscient oracle.
  double regretFactor() const {
    return bestTotal > 0.0 ? servedTotal / bestTotal : 1.0;
  }
  bool regretOk(double bound) const { return regretFactor() <= bound; }
};

/// Runs the scenario against `oracle` (whose machine constants the costs
/// use). The oracle must be configured with the same n-independent machine
/// the session plans against; its cache/atlas/ladder all apply unchanged.
DriftDrillReport runDriftDrill(Oracle& oracle,
                               const DriftScenarioOptions& options);

}  // namespace pushpart
