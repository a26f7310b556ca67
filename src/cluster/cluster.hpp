// Replicated, self-healing oracle cluster (DESIGN.md §13).
//
// An OracleCluster runs N simulated serving nodes — each a full Oracle with
// its own PlanCache, admission controller and circuit breaker — behind a
// router that consistent-hashes canonical request keys onto a ring
// (cluster/ring.hpp) and replicates every full-fidelity cache entry across
// the key's k owner nodes. Failures come from a seeded ClusterFaultPlan
// (sim/fault.hpp): nodes are killed and rejoin cold, links partition, nodes
// flap or merely slow down, and the router finds out the only way a real
// router can — heartbeats stop arriving (cluster/detector.hpp).
//
// Cluster-level serving semantics, layered on the per-instance degradation
// ladder of DESIGN.md §12:
//
//   retry-on-replica      a failed or shedding owner costs a retry, not the
//                         request; the router walks the key's owner list;
//   read-your-replica     a plan cached on *any* live owner is served from
//                         cache, even while the primary is dead or cold;
//   shed-as-last-resort   the cluster sheds only when every owner is down
//                         or every live owner shed — one healthy replica
//                         keeps the key answerable;
//   hinted handoff        replication writes aimed at an unreachable owner
//                         are parked (bounded) and delivered on recovery;
//   orchestrated rebalance a rejoining node is restored to the replication
//                         factor by streaming snapshot-format segments
//                         (serve/snapshot.hpp) from live peers, each
//                         checksum-verified on receipt, before it serves.
//
// Everything is deterministic under a FakeClock: time enters only through
// ClusterOptions::clock, fault windows are cluster-clock seconds, and every
// random draw (heartbeat drops) flows through the plan-seeded injector —
// a (options, workload, tick schedule) triple replays exactly.
//
// Concurrency: plan() takes a shared lock (many router threads serve
// concurrently; per-node state is behind each Oracle's own synchronization),
// tick() takes the exclusive lock for membership transitions and rebalance.
// Router counts are lock-free Counters; the hint store has its own mutex.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/detector.hpp"
#include "cluster/ring.hpp"
#include "serve/oracle.hpp"
#include "sim/fault.hpp"
#include "support/counter.hpp"
#include "support/deadline.hpp"
#include "support/histogram.hpp"

namespace pushpart {

struct ClusterOptions {
  int nodes = 3;
  /// Replication factor k: each key lives on its first k ring owners.
  int replication = 2;
  int vnodesPerNode = 32;
  /// Per-node oracle configuration (every node runs the same machine model —
  /// a cluster cache is only coherent for one machine).
  OracleOptions oracle;
  /// Seeded fault scenario for this run (inert by default).
  ClusterFaultPlan faults;
  /// Cluster time source; nullptr = Clock::steady(). Drills use a FakeClock.
  const Clock* clock = nullptr;
  /// How often the driver is expected to tick() — documented cadence for the
  /// detector thresholds below; the cluster itself reads time, never sleeps.
  double heartbeatIntervalSeconds = 0.05;
  double suspectAfterSeconds = 0.15;
  double confirmAfterSeconds = 0.4;
  /// Entries per rebalance segment streamed to a rejoining node.
  std::size_t segmentEntries = 64;
  /// Hinted-handoff bound per down node; beyond it the oldest hints drop.
  std::size_t maxHintsPerNode = 1024;

  /// Throws CheckError on non-positive counts, replication outside
  /// [1, nodes], or inverted detector thresholds.
  void validate() const;
};

/// Router's administrative view of a node (distinct from NodeHealth, the
/// detector's evidence-based view, and from ground truth, which only the
/// fault injector knows).
enum class NodeStatus {
  kUp = 0,
  kDown,     ///< Confirmed down; not routed to, replication writes hint.
  kJoining,  ///< Back in contact, being rebalanced; not yet serving.
};

constexpr const char* nodeStatusName(NodeStatus s) {
  switch (s) {
    case NodeStatus::kUp: return "up";
    case NodeStatus::kDown: return "down";
    case NodeStatus::kJoining: return "joining";
  }
  return "?";
}

/// Why the *cluster* (as opposed to one instance) refused a request.
enum class ClusterShedReason {
  kNone = 0,
  kAllOwnersDown,      ///< No owner was reachable to even try.
  kAllOwnersShedding,  ///< Every reachable owner load-shed.
};

constexpr const char* clusterShedReasonName(ClusterShedReason r) {
  switch (r) {
    case ClusterShedReason::kNone: return "none";
    case ClusterShedReason::kAllOwnersDown: return "all-owners-down";
    case ClusterShedReason::kAllOwnersShedding: return "all-owners-shedding";
  }
  return "?";
}

/// One routed request: the winning node's PlanResponse plus routing metadata.
struct ClusterResponse {
  PlanResponse response;
  int servedBy = -1;       ///< Node that answered; -1 on a cluster shed.
  bool replicaHit = false; ///< Served from a non-primary owner's cache.
  int attempts = 0;        ///< Owner attempts made (1 = first try worked).
  bool clusterShed = false;
  ClusterShedReason clusterShedReason = ClusterShedReason::kNone;
};

/// One line of the cluster's append-only event log (membership transitions,
/// rebalances) — what drills grep for recovery markers.
struct ClusterEvent {
  double at = 0.0;  ///< Cluster-clock seconds.
  std::string what;
};

struct RebalanceStats {
  std::uint64_t rebalances = 0;
  std::uint64_t segmentsStreamed = 0;
  std::uint64_t entriesStreamed = 0;
};

/// Router counters plus the detector, rebalance, latency and per-node
/// snapshots. OracleCluster keeps one instance as its live store: the router
/// counts and the rebalance totals (written under the exclusive lock) live
/// there, and stats() fills in the rest.
struct ClusterStats {
  Counter requests;
  Counter primaryServes;  ///< Answered by the key's primary owner.
  Counter replicaServes;  ///< Answered by a non-primary owner.
  Counter replicaHits;    ///< ... of which straight from its cache.
  Counter retries;        ///< Owner attempts that failed over.
  Counter clusterSheds;   ///< Requests no owner could answer.
  Counter replicasWritten;
  Counter hintsStored;
  Counter hintsDelivered;
  Counter hintsDropped;
  FailureDetector::Counters detector;
  RebalanceStats rebalance;
  LatencyHistogram::Snapshot latency;  ///< Router end-to-end (slow-node scaled).
  std::vector<OracleStats> nodes;
  std::vector<NodeStatus> statuses;
  std::vector<NodeHealth> health;
  std::vector<std::uint64_t> coldRestarts;  ///< Per-node kill-induced resets.
};

class OracleCluster {
 public:
  explicit OracleCluster(ClusterOptions options);

  OracleCluster(const OracleCluster&) = delete;
  OracleCluster& operator=(const OracleCluster&) = delete;

  /// Routes `req` to its owners with retry-on-replica. Thread-safe; may run
  /// concurrently with tick(). Cluster sheds are reported, never thrown.
  ClusterResponse plan(const PlanRequest& req) { return plan(req, {}); }
  ClusterResponse plan(const PlanRequest& req, const PlanCallOptions& call);

  /// Advances cluster bookkeeping to the clock's current instant: applies
  /// kills, collects heartbeats (minus seeded drops), runs the failure
  /// detector, and rebalances nodes that have come back. Drivers call this
  /// every heartbeatIntervalSeconds of cluster time.
  void tick();

  ClusterStats stats() const;

  /// Copy of the event log (membership transitions, rebalances).
  std::vector<ClusterEvent> events() const;

  /// Resident copies per canonical key text across every node whose process
  /// state survives (a killed node holds nothing; a merely unreachable one
  /// still counts) — the replication-residency census drills use to prove no
  /// replicated entry was lost and that rebalance restored the replication
  /// factor. Reads via exportEntries, so it perturbs no hit counter or LRU
  /// state.
  std::unordered_map<std::string, int> replicaCounts() const;

  const HashRing& ring() const { return ring_; }
  const ClusterOptions& options() const { return options_; }
  double nowSeconds() const { return clock_->nowSeconds(); }

 private:
  struct Node {
    std::unique_ptr<Oracle> oracle;
    NodeStatus status = NodeStatus::kUp;
    NodeHealth lastHealth = NodeHealth::kAlive;
    bool killObserved = false;  ///< Current kill already applied (state lost).
    std::uint64_t coldRestarts = 0;
  };

  struct Hint {
    std::string keyText;
    PlanAnswer answer;
  };

  /// Ground truth: `node` is running and the router can reach it.
  bool reachable(int node, double now) const;

  /// Replicates a freshly solved full-fidelity answer to `owners` other
  /// than `servedBy`; unreachable or down owners get hints.
  void replicate(const std::vector<int>& owners, int servedBy,
                 const std::string& keyText, const PlanAnswer& answer,
                 double now);

  /// Streams every entry `target` owns from live peers, in snapshot-format
  /// segments, into its cache; then delivers parked hints. Caller holds the
  /// exclusive lock. Returns entries restored.
  std::size_t rebalanceNode(int target, double now);

  void logEvent(double at, std::string what);

  ClusterOptions options_;
  const Clock* clock_;
  HashRing ring_;
  ClusterFaultInjector injector_;
  FailureDetector detector_;
  std::vector<Node> nodes_;

  /// plan() shared, tick()/rebalance exclusive.
  mutable std::shared_mutex mutex_;

  mutable std::mutex hintsMutex_;
  std::unordered_map<int, std::deque<Hint>> hints_;

  mutable std::mutex eventsMutex_;
  std::vector<ClusterEvent> events_;

  ClusterStats stats_;
  LatencyHistogram latency_;
};

}  // namespace pushpart
