#include "adapt/drill.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "model/optimal.hpp"
#include "shapes/candidates.hpp"
#include "sim/mmm_sim.hpp"
#include "support/rng.hpp"

namespace pushpart {

void DriftScenarioOptions::validate() const {
  if (phases < 1)
    throw std::invalid_argument("DriftScenario: phases must be >= 1");
  if (!(phaseSeconds > 0.0))
    throw std::invalid_argument("DriftScenario: phaseSeconds must be positive");
  if (n < kNumProcs)
    throw std::invalid_argument("DriftScenario: n too small to partition");
  if (wanderStep < 0.0)
    throw std::invalid_argument("DriftScenario: wanderStep must be >= 0");
  if (!(deadSpeedFloorFraction > 0.0) || deadSpeedFloorFraction >= 1.0)
    throw std::invalid_argument(
        "DriftScenario: deadSpeedFloorFraction must be in (0, 1)");
  if (!(regretBound >= 1.0))
    throw std::invalid_argument("DriftScenario: regretBound must be >= 1");
  if (reconvergePhases < 1)
    throw std::invalid_argument(
        "DriftScenario: reconvergePhases must be >= 1");
  if (!(reconvergeTolerancePct > 0.0))
    throw std::invalid_argument(
        "DriftScenario: reconvergeTolerancePct must be positive");
  for (Proc x : kAllProcs) {
    const std::size_t i = procSlot(x);
    if (!(wanderMin[i] > 0.0) || !(wanderMin[i] <= wanderMax[i]))
      throw std::invalid_argument("DriftScenario: bad wander bounds");
    if (baseSpeed[i] < wanderMin[i] || baseSpeed[i] > wanderMax[i])
      throw std::invalid_argument(
          "DriftScenario: baseSpeed outside wander bounds");
  }
  // The simulator needs a valid ratio every phase: node 2 (physical P) must
  // stay strictly fastest, so its wander floor must clear the others'
  // ceilings and faults may only touch nodes 0/1.
  const std::size_t pSlot = procSlot(Proc::P);
  for (Proc x : kSlowProcs)
    if (wanderMax[procSlot(x)] >= wanderMin[pSlot])
      throw std::invalid_argument(
          "DriftScenario: node 2 must stay fastest (raise wanderMin[P] above "
          "the other nodes' wanderMax)");
  for (const NodeKill& kill : faults.kills)
    if (kill.node == procIndex(Proc::P))
      throw std::invalid_argument("DriftScenario: node 2 must not be killed");
  for (const SlowNode& slow : faults.slowNodes)
    if (slow.node == procIndex(Proc::P))
      throw std::invalid_argument("DriftScenario: node 2 must not be slowed");
  faults.validate(kNumProcs);
  session.validate();
}

namespace {

/// Multiplicative reflection into [lo, hi] (steps are small relative to the
/// band, so one bounce suffices).
double reflect(double v, double lo, double hi) {
  if (v > hi) v = hi * hi / v;
  if (v < lo) v = lo * lo / v;
  return std::clamp(v, lo, hi);
}

/// Canonical ratio (fastest:middle:slowest) of three absolute speeds.
Ratio sortedRatio(const std::array<double, kNumProcs>& speed) {
  std::array<double, kNumProcs> s = speed;
  std::sort(s.begin(), s.end(), std::greater<double>());
  return Ratio{s[0], s[1], s[2]};
}

}  // namespace

DriftDrillReport runDriftDrill(Oracle& oracle,
                               const DriftScenarioOptions& options) {
  options.validate();
  const Machine constants = oracle.options().machine;
  const double duration = options.phases * options.phaseSeconds;

  FakeClock clock(0.0);
  AdaptiveSessionOptions sessionOptions = options.session;
  sessionOptions.base.n = options.n;
  sessionOptions.base.algo = options.algo;
  sessionOptions.base.ratio = sortedRatio(options.baseSpeed);
  sessionOptions.clock = &clock;

  AdaptiveSession session(oracle, sessionOptions);
  session.start();

  ClusterFaultInjector injector(options.faults, kNumProcs);
  Rng rng(options.seed);
  std::array<double, kNumProcs> wander = options.baseSpeed;
  constexpr std::array<Proc, kNumProcs> kRoles = {Proc::P, Proc::R, Proc::S};

  DriftDrillReport report;
  report.records.reserve(static_cast<std::size_t>(options.phases));

  for (int phase = 0; phase < options.phases; ++phase) {
    clock.advance(options.phaseSeconds);
    const double at = clock.nowSeconds();

    DriftPhaseRecord rec;
    rec.phase = phase;
    rec.at = at;

    // Ground truth: wander, then throttle windows, then kills at a floor
    // fraction of the fastest survivor.
    double fastestAlive = 0.0;
    for (Proc x : kAllProcs) {
      const std::size_t i = procSlot(x);
      if (options.wanderStep > 0.0) {
        const double step =
            std::exp((2.0 * rng.real() - 1.0) * options.wanderStep);
        wander[i] = reflect(wander[i] * step, options.wanderMin[i],
                            options.wanderMax[i]);
      }
      const int node = procIndex(x);
      rec.dead[i] = injector.killedAt(node, at);
      rec.trueSpeed[i] = wander[i] / injector.slowFactorAt(node, at);
      if (!rec.dead[i]) fastestAlive = std::max(fastestAlive, rec.trueSpeed[i]);
    }
    for (Proc x : kAllProcs) {
      const std::size_t i = procSlot(x);
      if (rec.dead[i])
        rec.trueSpeed[i] = options.deadSpeedFloorFraction * fastestAlive;
    }

    // Omniscient per-phase oracle: the optimum's modeled time at the exact
    // true speeds.
    Machine atTruth = constants;
    atTruth.ratio = sortedRatio(rec.trueSpeed);
    const RankedCandidate best =
        selectOptimal(options.algo, options.n, atTruth,
                      sessionOptions.base.topology, sessionOptions.base.star);
    rec.bestShape = best.shape;
    rec.bestCost = best.model.execSeconds;

    // The served plan at the true speeds, each logical role running on the
    // physical node the session assigned it. The simulator partitions by
    // *logical* role, so its machine carries the per-role effective speeds;
    // the model prices the served shape on the same machine, and the
    // emitted sample is remapped back to physical nodes below.
    const PlanAnswer served = session.current().answer;
    const std::array<Proc, kNumProcs> order = session.planOrder();
    std::array<double, kNumProcs> speedByRole{};
    for (std::size_t rank = 0; rank < kNumProcs; ++rank)
      speedByRole[procSlot(kRoles[rank])] =
          rec.trueSpeed[procSlot(order[rank])];
    const Ratio plannedRatio = session.plannedRatio();
    SimOptions sim;
    sim.machine = constants;
    sim.machine.ratio = Ratio{speedByRole[procSlot(Proc::P)],
                              speedByRole[procSlot(Proc::R)],
                              speedByRole[procSlot(Proc::S)]};
    sim.topology = sessionOptions.base.topology;
    sim.star = sessionOptions.base.star;
    rec.servedShape = served.shape;
    rec.servedCost =
        evalModel(options.algo,
                  candidateLines(served.shape, options.n, plannedRatio),
                  sim.machine, sim.topology, sim.star)
            .execSeconds;

    // Execute one phase of the served plan through the simulator to produce
    // the telemetry the session feeds on.
    PhaseSample logical;
    bool captured = false;
    sim.telemetry = [&](const PhaseSample& s) {
      logical = s;
      captured = true;
    };
    const Partition q =
        makeCandidate(served.shape, options.n, plannedRatio);
    simulateMMM(options.algo, q, sim);

    PhaseSample physical;
    physical.at = at;
    for (std::size_t rank = 0; rank < kNumProcs; ++rank) {
      const Proc node = order[rank];
      NodeSample ns =
          captured ? logical.node(kRoles[rank]) : NodeSample{};
      ns.proc = node;
      // Ground-truth death overrides the sample — in the real cluster this
      // mark comes from the failure detector (src/cluster), which the drill
      // stands in for.
      ns.dead = rec.dead[procSlot(node)];
      if (ns.dead) {
        ns.units = 0;
        ns.busySeconds = 0.0;
      }
      physical.node(node) = ns;
    }

    const std::uint64_t replansBefore = session.stats().replans;
    const DriftVerdict verdict = session.observe(physical);
    rec.stale = verdict.stale;
    rec.reason = verdict.reason;
    rec.replanned = session.stats().replans > replansBefore;

    report.servedTotal += rec.servedCost;
    report.bestTotal += rec.bestCost;
    report.records.push_back(rec);
  }

  report.stats = session.stats();
  report.estimator = session.estimatorCounters();
  report.events = session.events();

  // Fault-window recovery verdicts.
  const auto scoreWindow = [&](int node, bool kill, double begin, double end) {
    FaultWindowReport w;
    w.node = node;
    w.kill = kill;
    w.begin = begin;
    w.end = std::min(end, duration);
    const double grace =
        options.reconvergePhases * options.phaseSeconds;
    // "After the window" for a fault that outlives the drill means the
    // drill's tail: the session should have adapted to the persistent state.
    const double checkFrom =
        end >= duration ? duration - grace : w.end;
    for (const DriftPhaseRecord& rec : report.records) {
      if (rec.replanned && rec.at >= begin && rec.at <= w.end + grace)
        w.replanDuring = true;
      if (rec.at > checkFrom && rec.at <= checkFrom + grace &&
          rec.servedCost <=
              rec.bestCost * (1.0 + options.reconvergeTolerancePct / 100.0)) {
        w.reconverged = true;
        if (w.reconvergedAfterPhases < 0)
          w.reconvergedAfterPhases = static_cast<int>(
              std::ceil((rec.at - checkFrom) / options.phaseSeconds));
      }
    }
    report.windows.push_back(w);
  };
  for (const NodeKill& kill : options.faults.kills)
    scoreWindow(kill.node, true, kill.at,
                kill.rejoinAt.value_or(duration));
  for (const SlowNode& slow : options.faults.slowNodes)
    scoreWindow(slow.node, false, slow.begin, slow.end);

  return report;
}

}  // namespace pushpart
