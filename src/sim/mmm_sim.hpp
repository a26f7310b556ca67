// Message-level simulation of the five parallel MMM algorithms.
//
// This is the repo's stand-in for the paper's experimental testbed (three
// Open-MPI/ATLAS nodes with a /proc-based CPU limiter): a discrete-event
// simulation that executes each algorithm's communication schedule message
// by message on the Hockney network of sim/network.hpp and charges
// computation at the ratio-scaled speeds. Unlike the closed-form models
// (model/models.hpp) it accounts for per-message latency α, per-transfer
// chunking, NIC serialization and star store-and-forward — the effects a
// real cluster adds on top of Eqs. 2–9. Computation is the model's own: the
// slowest owner's loads come from computeLoads, and a fault-free bulk run
// finishes at bulkResult of its simulated comm time. So with α = 0 and one
// chunk per transfer the simulation collapses to the analytic model
// (asserted in tests/sim/mmm_sim_test.cpp).
//
// The bulk algorithms send the directed pair volumes up front. PIO sends
// the verified schedule of plan/comm_plan.hpp, one block of pivots at a
// time, and after a failover the delta plan of plan/rebalance.hpp. A
// processor death, whether caught during a bulk run, mid-PIO or in PIO's
// final drain, goes through one recovery body: repartition to the
// survivors, refetch the lost panels from the faster survivor, catch the
// gained cells up (DESIGN.md §9, "Failover timing").
#pragma once

#include "grid/partition.hpp"
#include "model/algo.hpp"
#include "model/machine.hpp"
#include "model/topology.hpp"
#include "sim/network.hpp"
#include "sim/telemetry.hpp"

namespace pushpart {

struct SimOptions {
  Machine machine;
  Topology topology = Topology::kFullyConnected;
  StarConfig star{};
  /// Messages per (sender → receiver) transfer in the bulk algorithms; more
  /// chunks expose more α. Must be >= 1.
  int chunksPerPair = 1;
  /// Pivots exchanged per PIO step (paper §II: "k rows and columns at a
  /// time"). 1 = classic PIO; n = one bulk exchange. Must be >= 1.
  int pioBlockSize = 1;
  /// Fault injection plan. The default plan is inert: nothing is dropped,
  /// slowed, stalled or killed, and the run is the perfect Hockney network.
  FaultPlan faults{};
  /// Timeout/retransmit policy of every transfer; validated on every run.
  RetryPolicy retry{};
  /// On processor death, repartition to the survivors (plan/rebalance.hpp)
  /// and finish the run degraded. When false a death aborts the run
  /// (SimResult::completed == false).
  bool rebalanceOnDeath = true;
  /// When set, the run emits one PhaseSample as it completes: per processor,
  /// the MACs it owned (count · n) and the model-charged busy seconds at the
  /// machine's ratio-scaled speed, with stall windows and a mid-run death
  /// marked. The adaptive serving loop (src/adapt) feeds on this.
  TelemetrySink telemetry;
};

/// What happened when a processor died mid-run (all zero when none did).
struct SimRecovery {
  bool processorDied = false;
  Proc deadProc = Proc::P;
  double deathDetectedAt = 0.0;  ///< Failure-detector instant (death + timeout).
  /// First pivot of the failover epoch: pivots [failoverPivot, N) re-run
  /// under the rebalanced partition.
  int failoverPivot = 0;
  std::int64_t reassignedElements = 0;  ///< Cells moved off the dead processor.
  std::int64_t refetchedElements = 0;   ///< Operand panels re-served on failover.
  /// Failover overhead: refetch/re-sync communication plus the catch-up
  /// computation of the reassigned cells over the already-finished pivots.
  double recoverySeconds = 0.0;
  bool failoverPlanVerified = false;  ///< verifyElementPlanRange accepted it.
  std::int64_t vocBefore = 0;  ///< VoC of the original partition.
  std::int64_t vocAfter = 0;   ///< VoC of the degraded two-survivor partition.
};

struct SimResult {
  double execSeconds = 0.0;
  /// Instant all communication completed (barrier algorithms) or total
  /// NIC-busy time (PIO).
  double commSeconds = 0.0;
  double overlapSeconds = 0.0;  ///< Bulk-overlap computation (SCO/PCO).
  double compSeconds = 0.0;     ///< Post-communication computation.
  NetworkStats network;
  /// False when the run could not finish: a transfer ran out of retry
  /// attempts, or a processor died with rebalanceOnDeath off (execSeconds
  /// then holds the abort instant).
  bool completed = true;
  SimRecovery recovery;
};

/// Simulates one full MMM of the partition's matrix under `algo`.
SimResult simulateMMM(Algo algo, const Partition& q, const SimOptions& options);

}  // namespace pushpart
