#include "cluster/cluster.hpp"

#include <sstream>
#include <unordered_set>
#include <utility>

#include "serve/snapshot.hpp"
#include "support/check.hpp"
#include "support/fnv.hpp"
#include "support/stopwatch.hpp"

namespace pushpart {

void ClusterOptions::validate() const {
  PUSHPART_CHECK_MSG(nodes >= 1, "cluster needs at least one node");
  PUSHPART_CHECK_MSG(replication >= 1 && replication <= nodes,
                     "replication factor must be in [1, nodes]");
  PUSHPART_CHECK_MSG(vnodesPerNode >= 1, "need at least one vnode per node");
  PUSHPART_CHECK_MSG(heartbeatIntervalSeconds > 0.0,
                     "heartbeat interval must be positive");
  PUSHPART_CHECK_MSG(suspectAfterSeconds > heartbeatIntervalSeconds,
                     "suspicion threshold must exceed the heartbeat interval");
  PUSHPART_CHECK_MSG(confirmAfterSeconds > suspectAfterSeconds,
                     "confirmation threshold must exceed suspicion");
  PUSHPART_CHECK_MSG(segmentEntries >= 1,
                     "rebalance segments need at least one entry");
}

namespace {
ClusterOptions validated(ClusterOptions options) {
  options.validate();
  return options;
}
}  // namespace

OracleCluster::OracleCluster(ClusterOptions options)
    : options_(validated(std::move(options))),
      clock_(options_.clock != nullptr ? options_.clock : &Clock::steady()),
      ring_(options_.nodes, options_.vnodesPerNode),
      injector_(options_.faults, options_.nodes),
      detector_(options_.nodes,
                DetectorOptions{options_.suspectAfterSeconds,
                                options_.confirmAfterSeconds},
                clock_->nowSeconds()) {
  nodes_.resize(static_cast<std::size_t>(options_.nodes));
  for (Node& node : nodes_)
    node.oracle = std::make_unique<Oracle>(options_.oracle);
}

bool OracleCluster::reachable(int node, double now) const {
  return injector_.nodeUpAt(node, now) &&
         injector_.linkUpAt(kRouterEndpoint, node, now);
}

ClusterResponse OracleCluster::plan(const PlanRequest& req,
                                    const PlanCallOptions& call) {
  Stopwatch timer;
  const CanonicalKey key = canonicalize(req);
  stats_.requests.add();

  std::shared_lock lock(mutex_);
  const double now = clock_->nowSeconds();
  const std::vector<int> owners =
      ring_.ownersFor(key.hash, options_.replication);

  ClusterResponse out;
  const auto recordServe = [&](int owner) {
    // Router end-to-end latency; a slow node's answers arrive late by its
    // active slow factor (no real sleeping — the factor scales the record).
    out.response.latencySeconds =
        timer.seconds() * injector_.slowFactorAt(owner, now);
    latency_.record(out.response.latencySeconds);
    if (owner == owners.front()) {
      stats_.primaryServes.add();
    } else {
      stats_.replicaServes.add();
      if (out.replicaHit) stats_.replicaHits.add();
    }
  };

  // Phase 1 — read-your-replica: a plan cached on any believed-up, reachable
  // owner is served straight from its cache, primary first. This is what
  // keeps a replicated entry answerable while its primary is dead or cold.
  for (int owner : owners) {
    Node& node = nodes_[static_cast<std::size_t>(owner)];
    if (node.status != NodeStatus::kUp || !reachable(owner, now)) continue;
    if (std::optional<PlanAnswer> cached = node.oracle->peekCached(key)) {
      out.servedBy = owner;
      out.attempts = 1;
      out.replicaHit = owner != owners.front();
      out.response.answer = *std::move(cached);
      out.response.cacheHit = true;
      out.response.key = key.text;
      if (call.deadline.expired()) {
        out.response.deadlineExceeded = true;
        if (out.response.answer.fullFidelity())
          out.response.answer.degrade = DegradeReason::kLate;
      }
      recordServe(owner);
      return out;
    }
  }

  // Phase 2 — solve with retry-on-replica: walk the owner list; a suspect
  // node (believed up, actually unreachable) costs a failed attempt, a
  // shedding node costs a retry, and only exhausting every owner sheds the
  // request at cluster level.
  bool anyAttempted = false;
  PlanCallOptions attempt = call;
  for (int owner : owners) {
    Node& node = nodes_[static_cast<std::size_t>(owner)];
    if (node.status != NodeStatus::kUp) continue;
    ++out.attempts;
    if (!reachable(owner, now)) {
      // The router believes this owner is up (at worst suspect) and tries
      // it; ground truth says otherwise, so the attempt fails over.
      stats_.retries.add();
      continue;
    }
    // Each attempt layers the call budget onto the caller's token anew;
    // withDeadline merges, so an expired caller stays cancelled across
    // retries and every earlier layer keeps cancelling.
    attempt.cancel = attempt.cancel.withDeadline(call.deadline);
    anyAttempted = true;
    PlanResponse resp = node.oracle->plan(key.request, attempt);
    if (resp.shed) {
      stats_.retries.add();
      continue;
    }
    out.servedBy = owner;
    out.replicaHit = owner != owners.front() && resp.cacheHit;
    out.response = std::move(resp);
    if (out.response.answer.fullFidelity() && !out.response.cacheHit)
      replicate(owners, owner, key.text, out.response.answer, now);
    recordServe(owner);
    return out;
  }

  out.clusterShed = true;
  out.clusterShedReason = anyAttempted ? ClusterShedReason::kAllOwnersShedding
                                       : ClusterShedReason::kAllOwnersDown;
  out.response.shed = true;
  out.response.key = key.text;
  out.response.deadlineExceeded = call.deadline.expired();
  out.response.latencySeconds = timer.seconds();
  stats_.clusterSheds.add();
  return out;
}

void OracleCluster::replicate(const std::vector<int>& owners, int servedBy,
                              const std::string& keyText,
                              const PlanAnswer& answer, double now) {
  for (int owner : owners) {
    if (owner == servedBy) continue;
    Node& node = nodes_[static_cast<std::size_t>(owner)];
    if (node.status == NodeStatus::kUp && reachable(owner, now)) {
      node.oracle->insertReplica(keyText, answer);
      stats_.replicasWritten.add();
    } else {
      // Hinted handoff: park the write for delivery when the owner returns,
      // bounded per target (oldest hints drop first — they are the most
      // likely to be re-replicated by later traffic anyway).
      std::lock_guard<std::mutex> hintsLock(hintsMutex_);
      std::deque<Hint>& parked = hints_[owner];
      if (parked.size() >= kMaxHintsPerNode) {
        parked.pop_front();
        stats_.hintsDropped.add();
      }
      parked.push_back(Hint{keyText, answer});
      stats_.hintsStored.add();
    }
  }
}

void OracleCluster::tick() {
  std::unique_lock lock(mutex_);
  const double now = clock_->nowSeconds();

  // 1. Ground-truth kill edges. A kill is a process crash: the node's
  // in-memory state (cache, breaker, counters) is lost at that instant,
  // modeled by swapping in a cold Oracle.
  for (int n = 0; n < options_.nodes; ++n) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    const bool killed = injector_.killedAt(n, now);
    if (killed && !node.killObserved) {
      node.killObserved = true;
      node.oracle = std::make_unique<Oracle>(options_.oracle);
      ++node.coldRestarts;
      logEvent(now,
               "node " + std::to_string(n) + " killed: process state lost");
    } else if (!killed && node.killObserved) {
      node.killObserved = false;
      logEvent(now, "node " + std::to_string(n) +
                        " restarted cold, awaiting rebalance");
    }
  }

  // 2. Heartbeats from every node ground truth can deliver, minus seeded
  // drops — the only channel through which the router learns anything.
  for (int n = 0; n < options_.nodes; ++n)
    if (reachable(n, now) && !injector_.dropHeartbeat())
      detector_.heartbeat(n, now);

  // 3. Detector transitions drive membership: confirmation takes a node out
  // of rotation; recovery rebalances it back in before it serves again.
  for (int n = 0; n < options_.nodes; ++n) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    const NodeHealth health = detector_.observe(n, now);
    if (health != node.lastHealth) {
      if (health == NodeHealth::kSuspect)
        logEvent(now, "node " + std::to_string(n) +
                          " suspected: heartbeats missed");
      else if (health == NodeHealth::kDown)
        logEvent(now, "node " + std::to_string(n) + " confirmed down");
      node.lastHealth = health;
    }
    if (health == NodeHealth::kDown && node.status == NodeStatus::kUp) {
      node.status = NodeStatus::kDown;
    } else if (health == NodeHealth::kAlive &&
               node.status == NodeStatus::kDown) {
      node.status = NodeStatus::kJoining;
      logEvent(now,
               "node " + std::to_string(n) + " rejoining: streaming rebalance");
      const std::size_t restored = rebalanceNode(n, now);
      node.status = NodeStatus::kUp;
      logEvent(now, "node " + std::to_string(n) + " recovered: serving (" +
                        std::to_string(restored) + " entries restored)");
    }
  }
}

std::size_t OracleCluster::rebalanceNode(int target, double now) {
  Node& joining = nodes_[static_cast<std::size_t>(target)];
  std::unordered_set<std::string> seen;
  std::vector<PlanCache::SnapshotEntry> segment;
  std::size_t restored = 0;
  std::uint64_t segments = 0;

  const auto flush = [&]() {
    if (segment.empty()) return;
    // One rebalance segment is one snapshot-format document: serialized by
    // the donor, checksum-verified line by line on receipt. Anything short
    // of a byte-perfect transfer is a bug, not a degraded restore.
    std::ostringstream wire;
    savePlanCacheSegment(segment, wire);
    std::istringstream received(wire.str());
    const SnapshotLoadReport report =
        joining.oracle->loadSnapshotSegment(received);
    PUSHPART_CHECK_MSG(report.clean() && report.loaded == segment.size(),
                       "rebalance segment must transfer byte-perfect");
    restored += report.loaded;
    ++segments;
    segment.clear();
  };

  for (int peer = 0; peer < options_.nodes; ++peer) {
    if (peer == target) continue;
    const Node& donor = nodes_[static_cast<std::size_t>(peer)];
    if (donor.status != NodeStatus::kUp || !reachable(peer, now)) continue;
    for (PlanCache::SnapshotEntry& entry : donor.oracle->exportCacheEntries()) {
      // Only the joining node's share of the ring comes back; keys owned by
      // other nodes stay where they are.
      if (!ring_.owns(target, fnv1a(entry.key), options_.replication))
        continue;
      if (!seen.insert(entry.key).second) continue;
      segment.push_back(std::move(entry));
      if (segment.size() >= options_.segmentEntries) flush();
    }
  }
  flush();

  stats_.rebalance.rebalances += 1;
  stats_.rebalance.segmentsStreamed += segments;
  stats_.rebalance.entriesStreamed += restored;

  // Deliver hinted handoffs: replication writes that happened while the
  // node was away.
  std::deque<Hint> parked;
  {
    std::lock_guard<std::mutex> hintsLock(hintsMutex_);
    const auto it = hints_.find(target);
    if (it != hints_.end()) {
      parked = std::move(it->second);
      hints_.erase(it);
    }
  }
  for (const Hint& hint : parked)
    joining.oracle->insertReplica(hint.keyText, hint.answer);
  stats_.hintsDelivered.add(parked.size());

  logEvent(now, "rebalance: node " + std::to_string(target) + " restored " +
                    std::to_string(restored) + " entries in " +
                    std::to_string(segments) + " segments, " +
                    std::to_string(parked.size()) + " hints delivered");
  return restored;
}

ClusterStats OracleCluster::stats() const {
  std::shared_lock lock(mutex_);
  const double now = clock_->nowSeconds();
  ClusterStats s = stats_;
  s.detector = detector_.counters();
  s.latency = latency_.snapshot();
  s.nodes.reserve(nodes_.size());
  for (int n = 0; n < options_.nodes; ++n) {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    s.nodes.push_back(node.oracle->stats());
    s.statuses.push_back(node.status);
    s.health.push_back(detector_.healthAt(n, now));
    s.coldRestarts.push_back(node.coldRestarts);
  }
  return s;
}

std::vector<ClusterEvent> OracleCluster::events() const {
  std::lock_guard<std::mutex> eventsLock(eventsMutex_);
  return events_;
}

std::unordered_map<std::string, int> OracleCluster::replicaCounts() const {
  std::shared_lock lock(mutex_);
  const double now = clock_->nowSeconds();
  std::unordered_map<std::string, int> counts;
  for (int n = 0; n < options_.nodes; ++n) {
    // The census counts every node whose process state survives: a killed
    // node holds nothing, but a merely unreachable one (flap, partition)
    // still has its entries — they were not lost.
    if (injector_.killedAt(n, now)) continue;
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    for (const PlanCache::SnapshotEntry& entry :
         node.oracle->exportCacheEntries())
      ++counts[entry.key];
  }
  return counts;
}

void OracleCluster::logEvent(double at, std::string what) {
  std::lock_guard<std::mutex> eventsLock(eventsMutex_);
  events_.push_back(ClusterEvent{at, std::move(what)});
}

}  // namespace pushpart
