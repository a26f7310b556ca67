#include "sim/fault.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace pushpart {

void FaultPlan::validate() const {
  PUSHPART_CHECK_MSG(dropProbability >= 0.0 && dropProbability <= 1.0,
                     "drop probability must be in [0, 1], got "
                         << dropProbability);
  for (const LatencySpike& s : spikes) {
    PUSHPART_CHECK_MSG(s.begin >= 0.0 && s.end > s.begin,
                       "latency spike window [" << s.begin << ", " << s.end
                                                << ") is empty or negative");
    PUSHPART_CHECK_MSG(s.alphaFactor > 0.0 && s.betaFactor > 0.0,
                       "latency spike factors must be positive");
  }
  for (const NicStall& s : stalls) {
    PUSHPART_CHECK_MSG(s.at >= 0.0 && s.seconds >= 0.0,
                       "NIC stall times must be non-negative");
  }
  if (death) PUSHPART_CHECK_MSG(death->at >= 0.0, "death time must be >= 0");
}

void RetryPolicy::validate() const {
  PUSHPART_CHECK_MSG(maxAttempts >= 1, "need at least one attempt");
  PUSHPART_CHECK_MSG(timeoutSeconds > 0.0, "timeout must be positive");
  PUSHPART_CHECK_MSG(backoffSeconds >= 0.0 && backoffMaxSeconds >= 0.0,
                     "backoff must be non-negative");
  PUSHPART_CHECK_MSG(backoffFactor >= 1.0, "backoff factor must be >= 1");
  PUSHPART_CHECK_MSG(jitterFraction >= 0.0 && jitterFraction < 1.0,
                     "jitter fraction must be in [0, 1), got "
                         << jitterFraction);
}

double RetryPolicy::backoffBeforeRetry(int retry, Rng& rng) const {
  PUSHPART_CHECK(retry >= 1);
  const double raw =
      backoffSeconds * std::pow(backoffFactor, static_cast<double>(retry - 1));
  const double capped = std::min(raw, backoffMaxSeconds);
  // Jitter draw happens even at jitterFraction == 0 so the stream position
  // depends only on the number of retries, not on the knob values.
  const double scale = 1.0 + jitterFraction * (2.0 * rng.real() - 1.0);
  return capped * scale;
}

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan), rng_(plan.seed) {
  plan_.validate();
}

bool FaultInjector::dropHop() {
  if (plan_.dropProbability <= 0.0) return false;
  return rng_.chance(plan_.dropProbability);
}

bool FaultInjector::aliveAt(Proc p, double t) const {
  return !(plan_.death && plan_.death->proc == p && t >= plan_.death->at);
}

double FaultInjector::alphaFactorAt(double t) const {
  double f = 1.0;
  for (const LatencySpike& s : plan_.spikes)
    if (t >= s.begin && t < s.end) f *= s.alphaFactor;
  return f;
}

double FaultInjector::betaFactorAt(double t) const {
  double f = 1.0;
  for (const LatencySpike& s : plan_.spikes)
    if (t >= s.begin && t < s.end) f *= s.betaFactor;
  return f;
}

void ClusterFaultPlan::validate(int nodeCount) const {
  PUSHPART_CHECK_MSG(nodeCount >= 1, "cluster needs at least one node");
  PUSHPART_CHECK_MSG(
      heartbeatDropProbability >= 0.0 && heartbeatDropProbability <= 1.0,
      "heartbeat drop probability must be in [0, 1], got "
          << heartbeatDropProbability);
  const auto checkNode = [nodeCount](int node, const char* what) {
    PUSHPART_CHECK_MSG(node >= 0 && node < nodeCount,
                       what << " names node " << node << " outside [0, "
                            << nodeCount << ")");
  };
  for (const NodeKill& k : kills) {
    checkNode(k.node, "kill");
    PUSHPART_CHECK_MSG(k.at >= 0.0, "kill time must be >= 0");
    if (k.rejoinAt)
      PUSHPART_CHECK_MSG(*k.rejoinAt > k.at,
                         "rejoin at " << *k.rejoinAt
                                      << " must follow the kill at " << k.at);
  }
  for (const LinkPartition& p : partitions) {
    if (p.a != kRouterEndpoint) checkNode(p.a, "partition");
    if (p.b != kRouterEndpoint) checkNode(p.b, "partition");
    PUSHPART_CHECK_MSG(p.a != p.b, "partition endpoints must differ");
    PUSHPART_CHECK_MSG(p.begin >= 0.0 && p.end > p.begin,
                       "partition window [" << p.begin << ", " << p.end
                                            << ") is empty or negative");
  }
  for (const NodeFlap& f : flaps) {
    checkNode(f.node, "flap");
    PUSHPART_CHECK_MSG(f.begin >= 0.0 && f.end > f.begin,
                       "flap window [" << f.begin << ", " << f.end
                                       << ") is empty or negative");
    PUSHPART_CHECK_MSG(f.period > 0.0, "flap period must be positive");
    PUSHPART_CHECK_MSG(f.upFraction >= 0.0 && f.upFraction <= 1.0,
                       "flap up-fraction must be in [0, 1], got "
                           << f.upFraction);
  }
  for (const SlowNode& s : slowNodes) {
    checkNode(s.node, "slow-node");
    PUSHPART_CHECK_MSG(s.begin >= 0.0 && s.end > s.begin,
                       "slow-node window [" << s.begin << ", " << s.end
                                            << ") is empty or negative");
    PUSHPART_CHECK_MSG(s.factor >= 1.0,
                       "slow-node factor must be >= 1, got " << s.factor);
  }
}

FaultPlan ClusterFaultInjector::streamPlanFor(const ClusterFaultPlan& plan) {
  FaultPlan stream;
  stream.seed = plan.seed;
  stream.dropProbability = plan.heartbeatDropProbability;
  return stream;
}

ClusterFaultInjector::ClusterFaultInjector(const ClusterFaultPlan& plan,
                                           int nodeCount)
    : plan_(plan), base_(streamPlanFor(plan)) {
  plan_.validate(nodeCount);
}

bool ClusterFaultInjector::killedAt(int node, double t) const {
  for (const NodeKill& k : plan_.kills) {
    if (k.node != node || t < k.at) continue;
    if (!k.rejoinAt || t < *k.rejoinAt) return true;
  }
  return false;
}

bool ClusterFaultInjector::flappedDownAt(int node, double t) const {
  for (const NodeFlap& f : plan_.flaps) {
    if (f.node != node || t < f.begin || t >= f.end) continue;
    // Square wave: up for period·upFraction, then down for the remainder.
    const double phase = std::fmod(t - f.begin, f.period);
    if (phase >= f.period * f.upFraction) return true;
  }
  return false;
}

bool ClusterFaultInjector::linkUpAt(int a, int b, double t) const {
  for (const LinkPartition& p : plan_.partitions) {
    const bool match = (p.a == a && p.b == b) || (p.a == b && p.b == a);
    if (match && t >= p.begin && t < p.end) return false;
  }
  return true;
}

double ClusterFaultInjector::slowFactorAt(int node, double t) const {
  double f = 1.0;
  for (const SlowNode& s : plan_.slowNodes)
    if (s.node == node && t >= s.begin && t < s.end) f *= s.factor;
  return f;
}

double FaultInjector::stallClearedAt(Proc p, double t) const {
  // Stall windows may overlap or chain; follow them until a fixpoint.
  bool moved = true;
  while (moved) {
    moved = false;
    for (const NicStall& s : plan_.stalls) {
      if (s.proc != p || s.seconds <= 0.0) continue;
      if (t >= s.at && t < s.at + s.seconds) {
        t = s.at + s.seconds;
        moved = true;
      }
    }
  }
  return t;
}

}  // namespace pushpart
