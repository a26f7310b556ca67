// Heartbeat-based failure detection with suspicion and confirmation.
//
// The router cannot see ground truth — it sees heartbeats. Each cluster
// tick, every reachable node's heartbeat lands here; a node's health is a
// pure function of (now - lastHeartbeat):
//
//   alive    within suspectAfterSeconds of the last heartbeat;
//   suspect  past suspicion but not yet confirmed — the router still *tries*
//            the node (it might be a dropped heartbeat), falling over to a
//            replica when the attempt fails;
//   down     past confirmAfterSeconds — confirmed, the router stops trying
//            and replication writes become hinted handoffs.
//
// The two-threshold design is what makes heartbeat loss survivable: a
// dropped heartbeat or two puts a healthy node in suspicion (where traffic
// still flows) without ever confirming it down. Time is injectable
// (support/deadline.hpp Clock), so tests and drills drive every transition
// with a FakeClock — no real-time sleeps anywhere.
//
// healthAt() is const and pure; observe() (called from the cluster's tick,
// under its exclusive lock) advances the per-node state machine and counts
// suspicion/confirmation/recovery edges.
#pragma once

#include <cstdint>
#include <vector>

namespace pushpart {

enum class NodeHealth {
  kAlive = 0,
  kSuspect,  ///< Heartbeats missed; not yet confirmed down.
  kDown,     ///< Confirmed down.
};

constexpr const char* nodeHealthName(NodeHealth h) {
  switch (h) {
    case NodeHealth::kAlive: return "alive";
    case NodeHealth::kSuspect: return "suspect";
    case NodeHealth::kDown: return "down";
  }
  return "?";
}

struct DetectorOptions {
  /// How long after the last heartbeat a node becomes suspect. Must exceed
  /// the heartbeat interval (with slack for dropped beats).
  double suspectAfterSeconds = 0.15;
  /// How long after the last heartbeat suspicion is confirmed as down.
  /// Must be > suspectAfterSeconds.
  double confirmAfterSeconds = 0.4;

  /// Throws CheckError on non-positive or inverted thresholds.
  void validate() const;
};

class FailureDetector {
 public:
  /// Every node starts alive with a heartbeat at `startSeconds`.
  FailureDetector(int nodeCount, DetectorOptions options,
                  double startSeconds = 0.0);

  /// Records a received heartbeat from `node` at time `at`.
  void heartbeat(int node, double at);

  /// Health of `node` at `now`, derived from its last heartbeat. Pure —
  /// safe to call concurrently with other readers.
  NodeHealth healthAt(int node, double now) const;

  /// Advances `node`'s recorded state to its health at `now`, counting
  /// suspicion/confirmation/recovery edges. Returns the new health.
  NodeHealth observe(int node, double now);

  int nodeCount() const { return static_cast<int>(nodes_.size()); }

  struct Counters {
    std::uint64_t suspicions = 0;     ///< alive -> suspect edges.
    std::uint64_t confirmations = 0;  ///< suspect/alive -> down edges.
    std::uint64_t recoveries = 0;     ///< suspect/down -> alive edges.
  };
  const Counters& counters() const { return counters_; }

 private:
  struct NodeState {
    double lastHeartbeat = 0.0;
    NodeHealth observed = NodeHealth::kAlive;
  };

  DetectorOptions options_;
  std::vector<NodeState> nodes_;
  Counters counters_;
};

}  // namespace pushpart
