#include "sim/mmm_sim.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
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
  const bool serialFamily = algo == Algo::kSCB || algo == Algo::kSCO;

  const bool hasDeath = options.faults.death.has_value();
  const Proc dead = hasDeath ? options.faults.death->proc : Proc::P;
  const double deathAt = hasDeath ? options.faults.death->at : 0.0;
  // The failure detector fires this long after the death.
  const double timedOut = deathAt + options.retry.timeoutSeconds;

  SimResult result;
  auto failAt = [&](double t) -> SimResult& {
    result.execSeconds = t;
    result.completed = false;
    result.network = net.stats();
    return result;
  };

  // The one recovery body, for a death detected at tDet. Unless recovery is
  // off, it repartitions the epoch from pivot kStar over the survivors and
  // sends from sendAt the checkpoint refetch: the faster survivor re-serves
  // the A and B panels of every cell the other one gained (its own share is
  // local). A bulk algorithm pre-delivered under the old ownership, so it
  // also re-syncs the epoch's delta plan in full. The survivors then catch
  // the gained cells up over the kStar finished pivots; a bulk algorithm
  // computes the whole epoch behind its barrier, while PIO's loop goes on
  // to price its epoch pivot by pivot. Returns nullopt when the run aborts
  // here: recovery is off, or a recovery transfer failed.
  struct Failover {
    RebalanceResult reb;
    double sent = 0.0;     ///< The recovery traffic's last delivery.
    double compute = 0.0;  ///< The slowest survivor's catch-up (and epoch).
  };
  auto failover = [&](double tDet, double sendAt, int kStar)
      -> std::optional<Failover> {
    SimRecovery& rec = result.recovery;
    rec.processorDied = true;
    rec.deadProc = dead;
    rec.deathDetectedAt = tDet;
    if (!options.rebalanceOnDeath) {
      failAt(tDet);
      return std::nullopt;
    }
    Failover f{rebalanceOnDeath(q, dead, m.ratio, kStar)};
    const RebalanceResult& reb = f.reb;
    rec.failoverPivot = kStar;
    rec.reassignedElements = reb.reassigned;
    rec.failoverPlanVerified = reb.deltaPlanVerified;
    rec.vocBefore = reb.vocBefore;
    rec.vocAfter = reb.vocAfter;

    const auto [server, gainer] = reb.survivors;
    std::vector<SimMessage> messages;
    rec.refetchedElements = 2 * reb.gained[procSlot(gainer)];
    if (rec.refetchedElements > 0)
      messages.push_back({server, gainer, rec.refetchedElements});
    if (algo != Algo::kPIO)
      for (SimMessage msg : chunkedMessages(planVolumes(reb.deltaPlan),
                                            options.chunksPerPair))
        messages.push_back(msg);
    const PhaseOutcome sent =
        serialFamily
            ? runSerialReliable(events, net, messages, options.retry, sendAt)
            : runParallelReliable(events, net, messages, options.retry,
                                  sendAt);
    if (algo != Algo::kPIO) result.commSeconds = sent.done;
    if (sent.abandoned || sent.peerDead) {
      failAt(sent.done);
      return std::nullopt;
    }
    f.sent = sent.done;

    const std::int64_t epochPivots = algo == Algo::kPIO ? 0 : n - kStar;
    double maxCatchup = 0.0;
    for (Proc x : reb.survivors) {
      const double catchup =
          m.computeSeconds(x, reb.gained[procSlot(x)] * kStar);
      const double rest =
          m.computeSeconds(x, reb.after.count(x) * epochPivots);
      maxCatchup = std::max(maxCatchup, catchup);
      f.compute = std::max(f.compute, catchup + rest);
    }
    rec.recoverySeconds = (sent.done - tDet) + maxCatchup;
    result.completed = reb.deltaPlanVerified;
    return f;
  };

  if (algo == Algo::kPIO) {
    PUSHPART_CHECK(options.pioBlockSize >= 1);
    ComputeLoads curLoads = loads;
    // The verified comm plan's entries still to send: the whole plan, then
    // the delta plan of the failover epoch.
    std::vector<PivotTransfers> plan = buildElementPlan(q);
    std::span<const PivotTransfers> unsent = plan;
    double t = 0.0;
    int prevBlockSteps = 0;
    bool failedOver = false;
    int k = 0;
    while (k < n) {
      if (hasDeath && !failedOver && t >= deathAt) {
        // Finish the owed previous-block computation, then fail over from
        // the current pivot: refetch the lost panels and let the remaining
        // loop iterations send the delta plan's pivots [k, n).
        const double tDet =
            std::max(t + curLoads.step * prevBlockSteps, timedOut);
        auto f = failover(tDet, tDet, k);
        if (!f) return result;
        curLoads = computeLoads(f->reb.after, m);
        plan = std::move(f->reb.deltaPlan);
        unsent = plan;
        t = f->sent + f->compute;
        prevBlockSteps = 0;
        failedOver = true;
        continue;
      }
      // Block b's pivot data (one message per pair, so larger blocks
      // amortize α) is exchanged while block b−1 is computed; block b
      // begins once both finish — Eq. 9's serialization.
      const int blockEnd = std::min(n, k + options.pioBlockSize);
      const auto pivots = unsent.first(static_cast<std::size_t>(blockEnd - k));
      const PhaseOutcome block = runParallelReliable(
          events, net, chunkedMessages(planVolumes(pivots), 1), options.retry,
          t);
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
      unsent = unsent.subspan(pivots.size());
      k = blockEnd;
    }
    t += curLoads.step * prevBlockSteps;
    if (hasDeath && !failedOver && deathAt < t) {
      // Death during the final drain: all pivot data was exchanged, but the
      // dead processor's C contributions are lost. Failover at pivot n:
      // empty delta plan, full catch-up for the reassigned cells.
      auto f = failover(timedOut, std::max(timedOut, t), n);
      if (!f) return result;
      t = f->sent + f->compute;
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
  const double tDet = std::max(comm.done, timedOut);
  // Progress pivot under the barrier view of the compute phase.
  int kStar = n;
  if (loads.full > 0.0) {
    const double f = std::clamp((tDet - comm.done) / loads.full, 0.0, 1.0);
    kStar = std::min(n, static_cast<int>(static_cast<double>(n) * f));
  }
  const auto f = failover(tDet, tDet, kStar);
  if (!f) return result;
  result.compSeconds = f->compute;
  result.execSeconds = f->sent + f->compute;
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
