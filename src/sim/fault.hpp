// Deterministic fault injection for the cluster simulator.
//
// The paper's analysis (§II, Eqs. 2–9) assumes a perfect network and three
// always-alive processors; a production cluster offers neither. A FaultPlan
// is a declarative, seed-driven description of what goes wrong during one
// run: messages dropped with a fixed probability, latency spikes that
// inflate the Hockney α/β over time windows, transient NIC stalls, and the
// permanent death of one processor at a given instant. A FaultInjector
// executes the plan: every random decision flows through one xoshiro stream
// seeded from the plan, so a (plan, partition, options) triple fully
// determines a simulated run — faults are reproducible, not flaky.
//
// The RetryPolicy describes how the transfer layer reacts to loss: a
// sender that has not seen an acknowledgement `timeoutSeconds` after its
// message went out retransmits, waiting a bounded exponential backoff
// (with deterministic jitter from the same stream) between attempts.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "grid/proc.hpp"
#include "support/rng.hpp"

namespace pushpart {

/// Multiplicative Hockney inflation over the window [begin, end): a message
/// whose hop starts inside the window pays alphaFactor·α + betaFactor·β·M.
struct LatencySpike {
  double begin = 0.0;
  double end = 0.0;
  double alphaFactor = 1.0;
  double betaFactor = 1.0;
};

/// Transient NIC outage: processor `proc` can start no outbound hop during
/// [at, at + seconds); hops ready inside the window start at its end.
struct NicStall {
  Proc proc = Proc::P;
  double at = 0.0;
  double seconds = 0.0;
};

/// Permanent processor death: `proc` neither sends, receives nor computes
/// from time `at` onward. Its partial results are lost.
struct ProcDeath {
  Proc proc = Proc::P;
  double at = 0.0;
};

/// Declarative fault schedule for one simulated run. Default-constructed
/// plans are inert: enabled() is false, and a FaultInjector running one
/// drops, slows, stalls and kills nothing — the perfect network.
struct FaultPlan {
  /// Seed of the fault stream (message-drop draws and backoff jitter).
  std::uint64_t seed = 1;
  /// Per-hop probability that a message is lost in transit. The hop still
  /// occupies the sender's NIC — the bytes go out, nobody receives them.
  double dropProbability = 0.0;
  std::vector<LatencySpike> spikes;
  std::vector<NicStall> stalls;
  std::optional<ProcDeath> death;

  bool enabled() const {
    return dropProbability > 0.0 || !spikes.empty() || !stalls.empty() ||
           death.has_value();
  }

  /// Throws CheckError on out-of-range probabilities, inverted spike
  /// windows, negative times or non-positive inflation factors.
  void validate() const;
};

/// Retransmission knobs for reliable transfers. Backoff before retry r
/// (r = 1 is the first retransmit) is
///   min(backoffSeconds · backoffFactor^(r−1), backoffMaxSeconds)
/// scaled by a uniform jitter in [1 − jitterFraction, 1 + jitterFraction].
struct RetryPolicy {
  int maxAttempts = 8;            ///< Total attempts before giving up.
  double timeoutSeconds = 1e-3;   ///< Ack wait before declaring a loss.
  double backoffSeconds = 1e-4;   ///< Backoff before the second attempt.
  double backoffFactor = 2.0;     ///< Exponential growth per retry.
  double backoffMaxSeconds = 0.1; ///< Backoff ceiling (bounded backoff).
  double jitterFraction = 0.1;    ///< ± relative jitter per backoff draw.

  /// Throws CheckError on non-positive attempts/timeouts or jitter outside
  /// [0, 1).
  void validate() const;

  /// Backoff delay before retry number `retry` (>= 1), jittered from `rng`.
  double backoffBeforeRetry(int retry, Rng& rng) const;
};

// ---------------------------------------------------------------------------
// Cluster-scale faults: the oracle cluster (src/cluster) runs N simulated
// serving nodes behind a router, and its failure modes are node-level rather
// than processor-level — whole nodes die and rejoin, links partition, nodes
// flap up and down, or merely slow down. A ClusterFaultPlan is the same idea
// as a FaultPlan one layer up: a declarative, seed-driven scenario whose
// every random decision (heartbeat drops, retry jitter) flows through the
// same FaultInjector stream machinery, so a (plan, workload, options) triple
// fully determines a drill — kill/partition/flap/slow scenarios are
// replayable, not flaky.

/// Node `node` dies (process crash: its in-memory state is lost) at `at`.
/// With `rejoinAt` set the node restarts cold at that instant and must be
/// rebalanced back in; without it the death is permanent.
struct NodeKill {
  int node = 0;
  double at = 0.0;
  std::optional<double> rejoinAt;
};

/// Symmetric link cut between endpoints `a` and `b` over [begin, end).
/// Endpoint kRouterEndpoint (-1) is the router/client side, so a partition
/// {kRouterEndpoint, n} isolates node n from traffic while it stays alive.
struct LinkPartition {
  int a = 0;
  int b = 0;
  double begin = 0.0;
  double end = 0.0;
};

/// Node `node` flaps over [begin, end): starting up, it alternates up for
/// `period · upFraction` then down for the rest of each period. Flap-down is
/// an outage (unreachable, heartbeats lost), not a crash — state survives.
struct NodeFlap {
  int node = 0;
  double begin = 0.0;
  double end = 0.0;
  double period = 1.0;
  double upFraction = 0.5;
};

/// Node `node` serves `factor`× slower over [begin, end) — responses arrive,
/// late. Overlapping windows multiply.
struct SlowNode {
  int node = 0;
  double begin = 0.0;
  double end = 0.0;
  double factor = 2.0;
};

/// The router/client endpoint in LinkPartition entries.
inline constexpr int kRouterEndpoint = -1;

/// Declarative node-level fault schedule for one cluster drill.
/// Default-constructed plans are inert: enabled() is false and the cluster
/// behaves like a perfect fleet.
struct ClusterFaultPlan {
  /// Seed of the fault stream (heartbeat-drop draws and backoff jitter).
  std::uint64_t seed = 1;
  /// Per-heartbeat probability that the router misses a node's heartbeat
  /// even though the node is up — what makes suspicion states reachable
  /// without an actual outage.
  double heartbeatDropProbability = 0.0;
  std::vector<NodeKill> kills;
  std::vector<LinkPartition> partitions;
  std::vector<NodeFlap> flaps;
  std::vector<SlowNode> slowNodes;

  bool enabled() const {
    return heartbeatDropProbability > 0.0 || !kills.empty() ||
           !partitions.empty() || !flaps.empty() || !slowNodes.empty();
  }

  /// Throws CheckError on out-of-range probabilities or node ids, inverted
  /// windows, non-positive flap periods, or factors < 1. `nodeCount` bounds
  /// the valid node ids.
  void validate(int nodeCount) const;
};

/// Executes a FaultPlan. One injector serves one simulated run; drop draws
/// and jitter consume the plan-seeded stream in event order, which the
/// deterministic event queue makes reproducible.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }

  /// Draws one Bernoulli(dropProbability) decision for a hop in transit.
  bool dropHop();

  /// True when `p` has not died by time `t`.
  bool aliveAt(Proc p, double t) const;

  /// Product of the α inflation factors of all spikes active at `t`.
  double alphaFactorAt(double t) const;
  /// Product of the β inflation factors of all spikes active at `t`.
  double betaFactorAt(double t) const;

  /// Earliest instant >= t at which `p`'s NIC is outside every stall
  /// window (chained stalls are followed through).
  double stallClearedAt(Proc p, double t) const;

  /// The shared fault stream (backoff jitter draws).
  Rng& rng() { return rng_; }

 private:
  FaultPlan plan_;
  Rng rng_;
};

/// Executes a ClusterFaultPlan: pure time queries for ground-truth node and
/// link state, plus seeded draws (through an embedded FaultInjector, the
/// same stream machinery the simulator uses) for heartbeat loss and retry
/// jitter.
class ClusterFaultInjector {
 public:
  /// Validates the plan against `nodeCount` nodes.
  ClusterFaultInjector(const ClusterFaultPlan& plan, int nodeCount);

  const ClusterFaultPlan& plan() const { return plan_; }

  /// True when a NodeKill has `node` dead at `t` (killed, not yet rejoined).
  bool killedAt(int node, double t) const;

  /// True when a flap window has `node` in a down phase at `t`.
  bool flappedDownAt(int node, double t) const;

  /// Ground truth: `node` is running and answering at `t` (neither killed
  /// nor flapped down).
  bool nodeUpAt(int node, double t) const {
    return !killedAt(node, t) && !flappedDownAt(node, t);
  }

  /// Ground truth: the link between `a` and `b` (kRouterEndpoint for the
  /// router side) carries traffic at `t`.
  bool linkUpAt(int a, int b, double t) const;

  /// Product of the slow-node factors active on `node` at `t` (1 when none).
  double slowFactorAt(int node, double t) const;

  /// Draws one Bernoulli(heartbeatDropProbability) decision.
  bool dropHeartbeat() { return base_.dropHop(); }

  /// The shared fault stream (retry backoff jitter draws).
  Rng& rng() { return base_.rng(); }

 private:
  static FaultPlan streamPlanFor(const ClusterFaultPlan& plan);

  ClusterFaultPlan plan_;
  /// Seeded drop/jitter draws reuse the single-run injector unchanged: its
  /// FaultPlan carries only the seed and the drop probability.
  FaultInjector base_;
};

}  // namespace pushpart
