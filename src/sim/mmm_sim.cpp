#include "sim/mmm_sim.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "grid/metrics.hpp"
#include "model/models.hpp"
#include "plan/rebalance.hpp"
#include "support/check.hpp"

namespace pushpart {

namespace {

using PairVolumes = std::array<std::array<std::int64_t, kNumProcs>, kNumProcs>;

/// Splits directed pair volumes into per-message chunks, sender-major.
std::vector<SimMessage> chunkedMessages(const PairVolumes& volumes,
                                        int chunksPerPair) {
  std::vector<SimMessage> out;
  for (Proc s : kAllProcs) {
    for (Proc r : kAllProcs) {
      if (s == r) continue;
      const std::int64_t volume = volumes[procSlot(s)][procSlot(r)];
      if (volume == 0) continue;
      for (int c = 0; c < chunksPerPair; ++c) {
        const std::int64_t lo = volume * c / chunksPerPair;
        const std::int64_t hi = volume * (c + 1) / chunksPerPair;
        if (hi > lo) out.push_back({s, r, hi - lo});
      }
    }
  }
  return out;
}

/// Directed volumes of the pivot steps [begin, end): each step's pivot
/// column of A and pivot row of B reach every other owner of the receiving
/// row/column.
PairVolumes pivotVolumes(const Partition& q, int begin, int end) {
  PairVolumes out{};
  const int n = q.n();
  for (int k = begin; k < end; ++k)
    for (Proc s : kAllProcs)
      for (Proc r : kAllProcs) {
        if (s == r) continue;
        std::int64_t& volume = out[procSlot(s)][procSlot(r)];
        for (int i = 0; i < n; ++i)
          if (q.at(i, k) == s && q.rowHas(r, i)) ++volume;  // A(i,k) pivots
        for (int j = 0; j < n; ++j)
          if (q.at(k, j) == s && q.colHas(r, j)) ++volume;  // B(k,j) pivots
      }
  return out;
}

/// Aggregate verdict of one reliable communication phase.
struct PhaseOutcome {
  double done = 0.0;      ///< Last delivery or failure-detection instant.
  bool peerDead = false;  ///< Some transfer failed on a dead endpoint.
  bool abandoned = false;  ///< Some transfer ran out of retry attempts.
};

/// Serial wire: transfers go one after another, each starting at the
/// previous outcome (delivery or detection) instant.
PhaseOutcome runSerialReliable(EventQueue& events, Network& net,
                               const std::vector<SimMessage>& messages,
                               const RetryPolicy& policy, double startAt) {
  PhaseOutcome o;
  double last = startAt;
  for (const SimMessage& msg : messages) {
    TransferOutcome out;
    net.sendReliable(msg, last, policy,
                     [&out](const TransferOutcome& r) { out = r; });
    events.run();
    last = out.at;
    if (!out.delivered) (out.peerDead ? o.peerDead : o.abandoned) = true;
  }
  o.done = last;
  return o;
}

/// Everything is issued at startAt (NICs serialize per sender).
PhaseOutcome runParallelReliable(EventQueue& events, Network& net,
                                 const std::vector<SimMessage>& messages,
                                 const RetryPolicy& policy, double startAt) {
  PhaseOutcome o;
  double latest = startAt;
  for (const SimMessage& msg : messages) {
    net.sendReliable(msg, startAt, policy, [&](const TransferOutcome& r) {
      latest = std::max(latest, r.at);
      if (!r.delivered) (r.peerDead ? o.peerDead : o.abandoned) = true;
    });
  }
  events.run();
  o.done = latest;
  return o;
}

/// The survivor with the higher relative speed (q-encoding order on ties) —
/// the natural checkpoint server for operand refetch.
Proc fastestSurvivor(Proc dead, const Ratio& ratio) {
  Proc best = Proc::P;
  bool have = false;
  for (Proc p : kAllProcs) {
    if (p == dead) continue;
    if (!have || ratio.speed(p) > ratio.speed(best)) {
      best = p;
      have = true;
    }
  }
  return best;
}

/// One run: reliable transfers (timeout/backoff retransmission) and, on
/// processor death, degrade-to-survivors failover via plan/rebalance.hpp.
/// Under an inert plan nothing is lost or delayed, every transfer lands on
/// its first attempt, and the run is the perfect Hockney network. Post-death
/// execution is modeled barrier-style — the overlap algorithms lose their
/// overlap once a failure is detected, a documented simplification
/// (DESIGN.md, "Fault model & recovery").
SimResult simulate(Algo algo, const Partition& q, const SimOptions& options) {
  FaultInjector injector(options.faults);  // validates the plan
  options.retry.validate();
  EventQueue events;
  Network net(events, options.machine, options.topology, options.star,
              injector);
  const Machine& m = options.machine;
  const ComputeLoads loads = computeLoads(q, m);
  const int n = q.n();

  const bool hasDeath = options.faults.death.has_value();
  const Proc dead = hasDeath ? options.faults.death->proc : Proc::P;
  const double deathAt = hasDeath ? options.faults.death->at : 0.0;

  SimResult result;
  auto failAt = [&](double t) -> SimResult& {
    result.execSeconds = t;
    result.completed = false;
    result.network = net.stats();
    return result;
  };

  // Marks the failure detection and computes the failover partition for the
  // epoch starting at pivot kStar. Returns nullopt when recovery is off.
  auto startFailover = [&](double tDet, int kStar,
                           const Partition& cur) -> std::optional<RebalanceResult> {
    result.recovery.processorDied = true;
    result.recovery.deadProc = dead;
    result.recovery.deathDetectedAt = tDet;
    if (!options.rebalanceOnDeath) return std::nullopt;
    RebalanceResult reb = rebalanceOnDeath(cur, dead, m.ratio, kStar);
    result.recovery.failoverPivot = kStar;
    result.recovery.reassignedElements = reb.reassigned;
    result.recovery.failoverPlanVerified = reb.deltaPlanVerified;
    result.recovery.vocBefore = reb.vocBefore;
    result.recovery.vocAfter = reb.vocAfter;
    return reb;
  };

  // Checkpoint refetch: the fastest survivor re-serves the A and B panels
  // of every reassigned cell to the other gainer (its own share is local).
  auto refetchMessages = [&](const RebalanceResult& reb) {
    const Proc server = fastestSurvivor(dead, m.ratio);
    std::vector<SimMessage> msgs;
    for (Proc x : kAllProcs) {
      if (x == dead || x == server) continue;
      const std::int64_t panels = 2 * reb.gained[procSlot(x)];
      if (panels > 0) {
        msgs.push_back({server, x, panels});
        result.recovery.refetchedElements += panels;
      }
    }
    return msgs;
  };

  if (algo == Algo::kPIO) {
    PUSHPART_CHECK(options.pioBlockSize >= 1);
    Partition cur = q;
    ComputeLoads curLoads = loads;
    double t = 0.0;
    int prevBlockSteps = 0;
    bool failedOver = false;
    int k = 0;
    while (k < n) {
      if (hasDeath && !failedOver && t >= deathAt) {
        // Finish the owed previous-block computation, then fail over from
        // the current pivot: refetch the lost panels and let the remaining
        // loop iterations replay pivots [k, n) under the new partition.
        const double pending = t + curLoads.step * prevBlockSteps;
        const double tDet =
            std::max(pending, deathAt + options.retry.timeoutSeconds);
        auto reb = startFailover(tDet, k, cur);
        if (!reb) return failAt(tDet);
        const PhaseOutcome rec = runParallelReliable(
            events, net, refetchMessages(*reb), options.retry, tDet);
        if (rec.abandoned || rec.peerDead) return failAt(rec.done);
        cur = std::move(reb->after);
        curLoads = computeLoads(cur, m);
        double maxCatchup = 0.0;
        for (Proc x : kAllProcs) {
          if (x == dead) continue;
          maxCatchup = std::max(
              maxCatchup, m.computeSeconds(x, reb->gained[procSlot(x)] * k));
        }
        result.recovery.recoverySeconds = (rec.done - tDet) + maxCatchup;
        result.completed = reb->deltaPlanVerified;
        t = rec.done + maxCatchup;
        prevBlockSteps = 0;
        failedOver = true;
        continue;
      }
      // Block b's pivot data (one message per pair, so larger blocks
      // amortize α) is exchanged while block b−1 is computed; block b
      // begins once both finish — Eq. 9's serialization.
      const int blockEnd = std::min(n, k + options.pioBlockSize);
      const PhaseOutcome block = runParallelReliable(
          events, net, chunkedMessages(pivotVolumes(cur, k, blockEnd), 1),
          options.retry, t);
      if (block.abandoned) return failAt(block.done);
      if (block.peerDead) {
        // Death detected mid-block; re-enter the loop so the failover
        // branch fires and this block is re-sent under the new partition.
        PUSHPART_CHECK(!failedOver);
        t = std::max(t, block.done);
        continue;
      }
      t = std::max(block.done, t + curLoads.step * prevBlockSteps);
      prevBlockSteps = blockEnd - k;
      k = blockEnd;
    }
    t += curLoads.step * prevBlockSteps;
    if (hasDeath && !failedOver && deathAt < t) {
      // Death during the final drain: all pivot data was exchanged, but the
      // dead processor's C contributions are lost. Failover at pivot n:
      // empty delta schedule, full catch-up for the reassigned cells.
      const double tDet = deathAt + options.retry.timeoutSeconds;
      auto reb = startFailover(tDet, n, q);
      if (!reb) return failAt(tDet);
      const PhaseOutcome rec = runParallelReliable(
          events, net, refetchMessages(*reb), options.retry,
          std::max(tDet, t));
      if (rec.abandoned || rec.peerDead) return failAt(rec.done);
      double maxCatchup = 0.0;
      for (Proc x : kAllProcs) {
        if (x == dead) continue;
        maxCatchup = std::max(
            maxCatchup, m.computeSeconds(x, reb->gained[procSlot(x)] * n));
      }
      result.recovery.recoverySeconds = (rec.done - tDet) + maxCatchup;
      result.completed = reb->deltaPlanVerified;
      t = rec.done + maxCatchup;
    }
    double nicBusy = 0.0;
    for (double b : net.stats().nicBusySeconds) nicBusy += b;
    result.commSeconds = nicBusy;
    result.compSeconds = curLoads.step * n;
    result.execSeconds = t;
    result.network = net.stats();
    return result;
  }

  // --- Bulk algorithms (SCB/PCB/SCO/PCO) --------------------------------
  const bool serialFamily = algo == Algo::kSCB || algo == Algo::kSCO;
  const auto messages = chunkedMessages(pairVolumes(q), options.chunksPerPair);
  const PhaseOutcome comm =
      serialFamily
          ? runSerialReliable(events, net, messages, options.retry, 0.0)
          : runParallelReliable(events, net, messages, options.retry, 0.0);
  result.commSeconds = comm.done;
  if (comm.abandoned) return failAt(comm.done);

  // The fault-free finish is the model's combine of the simulated comm.
  const ModelResult ideal = bulkResult(algo, comm.done, loads);
  if (!hasDeath || (!comm.peerDead && deathAt >= ideal.execSeconds)) {
    result.overlapSeconds = ideal.overlapSeconds;
    result.compSeconds = ideal.compSeconds;
    result.execSeconds = ideal.execSeconds;
    result.network = net.stats();
    return result;
  }

  // --- Failover ----------------------------------------------------------
  // Detection: during the communication phase the failed transfers already
  // pushed comm.done past the ack timeout; during computation the failure
  // detector fires timeoutSeconds after the death.
  const double tDet =
      std::max(comm.done, deathAt + options.retry.timeoutSeconds);
  // Progress pivot under the barrier view of the compute phase.
  int kStar = n;
  if (loads.full > 0.0) {
    const double f = std::clamp((tDet - comm.done) / loads.full, 0.0, 1.0);
    kStar = std::min(n, static_cast<int>(static_cast<double>(n) * f));
  }
  auto reb = startFailover(tDet, kStar, q);
  if (!reb) return failAt(tDet);

  // Recovery traffic: checkpoint refetch plus the failover epoch's delta
  // schedule (bulk algorithms pre-delivered under the old ownership, so the
  // epoch's volumes are re-synced in full among the survivors).
  std::vector<SimMessage> recMessages = refetchMessages(*reb);
  for (SimMessage msg :
       chunkedMessages(planVolumes(reb->deltaPlan), options.chunksPerPair))
    recMessages.push_back(msg);
  const PhaseOutcome rec =
      serialFamily
          ? runSerialReliable(events, net, recMessages, options.retry, tDet)
          : runParallelReliable(events, net, recMessages, options.retry, tDet);
  result.commSeconds = rec.done;
  if (rec.abandoned || rec.peerDead) return failAt(rec.done);

  // Survivors catch the reassigned cells up over the finished pivots, then
  // everyone computes the failover epoch.
  double maxCatchup = 0.0;
  double maxComp = 0.0;
  for (Proc x : kAllProcs) {
    if (x == dead) continue;
    const double catchup =
        m.computeSeconds(x, reb->gained[procSlot(x)] * kStar);
    const double rest =
        m.computeSeconds(x, reb->after.count(x) * (n - kStar));
    maxCatchup = std::max(maxCatchup, catchup);
    maxComp = std::max(maxComp, catchup + rest);
  }
  result.recovery.recoverySeconds = (rec.done - tDet) + maxCatchup;
  result.compSeconds = maxComp;
  result.execSeconds = rec.done + maxComp;
  result.completed = reb->deltaPlanVerified;
  result.network = net.stats();
  return result;
}

/// One PhaseSample for a completed run: per processor the MACs it owned and
/// the model-charged busy time, with the fault plan's stall windows and a
/// mid-run death marked. The emitter reports, it never smooths — estimation
/// is the consumer's job (src/adapt).
void emitRunTelemetry(const Partition& q, const SimOptions& options,
                      const SimResult& result) {
  PhaseSample sample;
  sample.at = result.execSeconds;
  for (Proc x : kAllProcs) {
    NodeSample& node = sample.node(x);
    node.proc = x;
    if (result.recovery.processorDied && result.recovery.deadProc == x) {
      node.dead = true;  // nothing to measure: its partial results are lost
      continue;
    }
    node.units = q.count(x) * q.n();
    node.busySeconds = options.machine.computeSeconds(x, node.units);
    for (const NicStall& stall : options.faults.stalls)
      if (stall.proc == x && stall.at < result.execSeconds)
        node.stalled = true;
  }
  options.telemetry(sample);
}

}  // namespace

SimResult simulateMMM(Algo algo, const Partition& q,
                      const SimOptions& options) {
  requireThreeOwners(q);
  PUSHPART_CHECK(options.chunksPerPair >= 1);
  PUSHPART_CHECK_MSG(options.machine.ratio.valid(),
                     "invalid ratio " << options.machine.ratio.str());
  SimResult result = simulate(algo, q, options);
  if (options.telemetry) emitRunTelemetry(q, options, result);
  return result;
}

}  // namespace pushpart
