#include "cluster/detector.hpp"

#include <utility>

#include "support/check.hpp"

namespace pushpart {

void DetectorOptions::validate() const {
  PUSHPART_CHECK_MSG(suspectAfterSeconds > 0.0,
                     "suspectAfterSeconds must be positive");
  PUSHPART_CHECK_MSG(confirmAfterSeconds > suspectAfterSeconds,
                     "confirmAfterSeconds must exceed suspectAfterSeconds");
}

FailureDetector::FailureDetector(int nodeCount, DetectorOptions options,
                                 double startSeconds)
    : options_(std::move(options)) {
  options_.validate();
  PUSHPART_CHECK_MSG(nodeCount >= 1, "detector needs at least one node");
  nodes_.assign(static_cast<std::size_t>(nodeCount),
                NodeState{startSeconds, NodeHealth::kAlive});
}

void FailureDetector::heartbeat(int node, double at) {
  PUSHPART_CHECK(node >= 0 && node < nodeCount());
  NodeState& state = nodes_[static_cast<std::size_t>(node)];
  // Heartbeats never move time backwards (a delayed beat must not shrink
  // the evidence window a fresher beat already established).
  if (at > state.lastHeartbeat) state.lastHeartbeat = at;
}

NodeHealth FailureDetector::healthAt(int node, double now) const {
  PUSHPART_CHECK(node >= 0 && node < nodeCount());
  const double silent =
      now - nodes_[static_cast<std::size_t>(node)].lastHeartbeat;
  if (silent <= options_.suspectAfterSeconds) return NodeHealth::kAlive;
  if (silent <= options_.confirmAfterSeconds) return NodeHealth::kSuspect;
  return NodeHealth::kDown;
}

NodeHealth FailureDetector::observe(int node, double now) {
  const NodeHealth next = healthAt(node, now);
  NodeState& state = nodes_[static_cast<std::size_t>(node)];
  const NodeHealth prev = state.observed;
  if (next != prev) {
    if (next == NodeHealth::kSuspect && prev == NodeHealth::kAlive)
      ++counters_.suspicions;
    else if (next == NodeHealth::kDown)
      ++counters_.confirmations;
    else if (next == NodeHealth::kAlive)
      ++counters_.recoveries;
    state.observed = next;
  }
  return next;
}

}  // namespace pushpart
