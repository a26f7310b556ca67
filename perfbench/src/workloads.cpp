#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "atlas/builder.hpp"
#include "atlas/io.hpp"
#include "bounds/bounds.hpp"
#include "dfa/batch.hpp"
#include "exec/kij_executor.hpp"
#include "exec/matrix.hpp"
#include "gen.hpp"
#include "model/optimal.hpp"
#include "plan/comm_plan.hpp"
#include "serve/oracle.hpp"
#include "shapes/candidates.hpp"
#include "sim/mmm_sim.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using pushpart::AtlasBuildOptions;
using pushpart::BatchOptions;
using pushpart::BatchRun;
using pushpart::CanonicalKey;
using pushpart::ExecOptions;
using pushpart::ExecResult;
using pushpart::Machine;
using pushpart::Oracle;
using pushpart::OracleOptions;
using pushpart::OracleStats;
using pushpart::Partition;
using pushpart::PlanAnswer;
using pushpart::PlanAtlas;
using pushpart::PlanRequest;
using pushpart::PlanResponse;
using pushpart::PlanTier;
using pushpart::Ratio;
using pushpart::SimOptions;
using pushpart::SimResult;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Run sizing. A round holds seconds × rate / rounds ops, fixed before the
// run starts, so the work counters repeat exactly. The rates are op
// executions per second of --seconds, chosen on a 4-core x86 VM so a run
// times about --seconds of ops (product: about twice that, so that each
// round keeps 10 ops beyond its p90). The wall time is whatever the ops take.
constexpr double kPlanServeRate = 2000.0;
constexpr double kSearchColdRate = 28.0;
constexpr double kProductRate = 20.0;

/// Executor throttle quantum: 2^18 MACs is a few hundred microseconds of
/// kij work per charge, above the throttle's ~100 µs floor.
constexpr int kQuantumMacs = 1 << 18;

/// plan-serve: the cache holds about a third of the key universe.
constexpr std::size_t kPlanServeCache = 2048;

std::size_t opsFor(double seconds, double rate, int rounds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(seconds * rate / rounds)));
}

// -- Per-op records -----------------------------------------------------------

struct ProductOutcome {
  bool ran = false;
  int n = 0;
  bool planVerified = false;
  std::int64_t transfers = 0;
  SimResult sim;
  ExecResult exec;
  int execSpan = -1;
};

struct OpRecord {
  double seconds = 0.0;  ///< Measured around the op by the client.
  PlanResponse response;
  std::string error;     ///< Exception text; empty when the op completed.
  int planSpan = -1;
  int solveSpan = -1;    ///< -1 when plan() was served from the cache.
  ProductOutcome product;
};

/// What the oracle hooks write while a traced plan() call is in flight.
struct HookState {
  Trace* trace = nullptr;
  std::int64_t solveStartNs = -1;
  std::vector<std::int64_t> walkEndNs;
};

struct ReplayCounts {
  std::int64_t walks = 0;
  std::int64_t pushes = 0;
  std::int64_t sweeps = 0;
};

/// One set-up's worth of serving state.
struct Instance {
  HookState hooks;  // declared before the oracle, whose hooks point here
  std::shared_ptr<PlanAtlas> atlas;
  std::unique_ptr<Oracle> oracle;
  OracleStats baseline;  ///< Counters after the warm-up op.
  std::vector<OpRecord> ops;
  double wallSeconds = 0.0;
  ReplayCounts replay;  ///< Filled by the traced run's replay pass.
};

enum class Source { kCache, kTierA, kAtlas, kTierB };

Source sourceOf(const PlanResponse& r) {
  if (r.cacheHit || r.coalesced) return Source::kCache;
  if (r.answer.atlasServed) return Source::kAtlas;
  return r.answer.servedTier == PlanTier::kSearch ? Source::kTierB
                                                  : Source::kTierA;
}

const char* solveSpanName(const PlanAnswer& a) {
  if (a.atlasServed) return "atlas.solve";
  return a.servedTier == PlanTier::kSearch ? "dfa.solve" : "model.solve";
}

/// One Oracle::plan() call. Traced, it records a serve.plan span, the cold
/// solve beneath it (onSolveStart plus solveSeconds), and the gaps between
/// successive tier-B walks (onSearchRun) beneath that.
PlanResponse callPlan(Instance& in, const PlanRequest& req, Trace* trace,
                      std::int64_t op, int parent, OpRecord& rec) {
  if (!trace) return in.oracle->plan(req);
  in.hooks.solveStartNs = -1;
  in.hooks.walkEndNs.clear();
  rec.planSpan = trace->open("serve.plan", op, parent);
  PlanResponse resp = in.oracle->plan(req);
  trace->close(rec.planSpan);
  if (in.hooks.solveStartNs >= 0) {
    const std::int64_t end =
        in.hooks.solveStartNs + std::llround(resp.answer.solveSeconds * 1e9);
    rec.solveSpan = trace->add(solveSpanName(resp.answer),
                               in.hooks.solveStartNs, end, rec.planSpan, op);
    for (std::size_t w = 1; w < in.hooks.walkEndNs.size(); ++w)
      trace->add("dfa.walk", in.hooks.walkEndNs[w - 1], in.hooks.walkEndNs[w],
                 rec.solveSpan, op);
  }
  return resp;
}

// -- Workloads ----------------------------------------------------------------

class Workload {
 public:
  explicit Workload(const RunOptions& options) : options_(options) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Rounds of an untraced run, and the ops in each.
  virtual int rounds() const = 0;
  virtual std::size_t opCount() const = 0;
  /// Latency modes, fastest first, and the mode an op fell into.
  virtual std::vector<std::string> modes() const = 0;
  virtual std::size_t modeOf(std::size_t op, const OpRecord& rec) const = 0;
  /// The plan request op `op` sends.
  virtual const PlanRequest& request(std::size_t op) const = 0;

  /// One set-up: inputs, oracle (and atlas), one untimed warm-up op. With a
  /// trace, set-up spans and the oracle's hooks record into it.
  std::unique_ptr<Instance> setUp(Trace* trace) {
    generate();
    auto in = std::make_unique<Instance>();
    in->hooks.trace = trace;
    OracleOptions oo;
    oo.searchThreads = 1;
    oo.atlasPrefetch = false;
    configure(*in, oo, trace);
    if (trace) {
      HookState* hooks = &in->hooks;
      oo.onSolveStart = [hooks](const CanonicalKey&) {
        hooks->solveStartNs = hooks->trace->now();
      };
      oo.onSearchRun = [hooks](const CanonicalKey&, int) {
        hooks->walkEndNs.push_back(hooks->trace->now());
      };
    }
    in->oracle = std::make_unique<Oracle>(std::move(oo));
    {
      ScopedSpan span(trace, "setup.warm_up", -1);
      OpRecord warm;
      runOp(*in, kWarmUp, nullptr, -1, -1, warm);
      if (warm.response.shed) throw std::runtime_error("warm-up op was shed");
    }
    in->baseline = in->oracle->stats();
    return in;
  }

  /// Sends every op once from one closed-loop client.
  void run(Instance& in, Trace* trace) {
    in.ops.assign(opCount(), OpRecord{});
    const auto start = Clock::now();
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      OpRecord& rec = in.ops[i];
      const auto t0 = Clock::now();
      try {
        ScopedSpan span(trace, "op", static_cast<std::int64_t>(i));
        runOp(in, i, trace, static_cast<std::int64_t>(i), span.id(), rec);
      } catch (const std::exception& e) {
        rec.error = e.what();
      }
      rec.seconds = secondsSince(t0);
    }
    in.wallSeconds = secondsSince(start);
  }

  struct CheckResult {
    std::uint64_t failed = 0;
    std::vector<double> regret;  ///< Per completed op.
    std::vector<std::string> firstFailures;
  };

  /// Checks every op against references computed outside the timed pass.
  CheckResult check(Instance& in) {
    CheckResult out;
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      const OpRecord& rec = in.ops[i];
      double regret = 1.0;
      std::string why = rec.error.empty() ? checkOp(in, rec, i, regret)
                                          : "exception: " + rec.error;
      if (why.empty()) {
        out.regret.push_back(regret);
        continue;
      }
      ++out.failed;
      if (out.firstFailures.size() < 5)
        out.firstFailures.push_back("op " + std::to_string(i) + ": " + why);
    }
    return out;
  }

  /// Extra per-layer numbers only this workload's ops produce.
  virtual void layerExtras(Instance&, Trace&,
                           std::map<std::string, double>&) {}

 protected:
  /// Index standing for the warm-up op, outside the op stream.
  static constexpr std::size_t kWarmUp = static_cast<std::size_t>(-1);

  virtual void generate() = 0;
  /// Sets the workload's oracle options (and builds its atlas).
  virtual void configure(Instance& in, OracleOptions& oo, Trace* trace) = 0;
  virtual void runOp(Instance& in, std::size_t job, Trace* trace,
                     std::int64_t op, int parent, OpRecord& rec) = 0;
  /// Empty when the op's outputs match the references; sets its regret.
  virtual std::string checkOp(Instance& in, const OpRecord& rec,
                              std::size_t job, double& regret) = 0;

  /// The reference answer for `req`'s canonical key, solved once per key on
  /// the reference oracle (no cache, no atlas).
  const PlanAnswer& reference(const PlanRequest& req, std::size_t job) {
    const CanonicalKey key = pushpart::canonicalize(req);
    auto it = refs_.find(key.text);
    if (it == refs_.end()) {
      PlanAnswer ref = referenceOracle().solveUncached(req);
      if (options_.corruptReference && job == 0) {
        ref.voc += 1;
        ref.model.execSeconds *= 0.5;
      }
      it = refs_.emplace(key.text, std::move(ref)).first;
    }
    return it->second;
  }

  /// A served answer against its reference: bit-identical in every field
  /// but solveSeconds, or — served from the atlas — a certificate within
  /// the bound. Regret is the served modeled time over the exact best.
  static std::string checkAnswer(const PlanResponse& r, const PlanAnswer& ref,
                                 double atlasGapPct, double& regret) {
    if (r.shed) return "shed";
    if (!r.answer.fullFidelity())
      return std::string("degraded: ") +
             pushpart::degradeReasonName(r.answer.degrade);
    regret = r.answer.model.execSeconds / ref.model.execSeconds;
    if (r.answer.atlasServed) {
      if (!(r.answer.atlasCertGapPct <= atlasGapPct))
        return "atlas certificate gap above the bound";
      if (!(regret <= 1.0 + atlasGapPct / 100.0))
        return "atlas answer models slower than its certificate allows";
      return {};
    }
    PlanAnswer served = r.answer;
    PlanAnswer expected = ref;
    served.solveSeconds = expected.solveSeconds = 0.0;
    if (!(served == expected)) return "answer differs from the reference";
    return {};
  }

  virtual Oracle& referenceOracle() {
    if (!referenceOracle_) referenceOracle_ = std::make_unique<Oracle>();
    return *referenceOracle_;
  }

  RunOptions options_;
  std::unordered_map<std::string, PlanAnswer> refs_;
  std::unique_ptr<Oracle> referenceOracle_;
};

// plan-serve ------------------------------------------------------------------

class PlanServe final : public Workload {
 public:
  using Workload::Workload;

  int rounds() const override { return 3; }
  std::size_t opCount() const override {
    return opsFor(options_.seconds, kPlanServeRate, rounds());
  }
  std::vector<std::string> modes() const override {
    return {"hit", "solve", "tier-b"};
  }
  std::size_t modeOf(std::size_t, const OpRecord& rec) const override {
    switch (sourceOf(rec.response)) {
      case Source::kCache: return 0;
      case Source::kTierB: return 2;
      default: return 1;
    }
  }
  const PlanRequest& request(std::size_t op) const override {
    return op == kWarmUp ? warmUp_ : inputs_.stream[op];
  }

 protected:
  void generate() override {
    inputs_ = makePlanServe(options_.seed, opCount());
    // Outside the key universe (n < 64), so it never warms a timed key.
    warmUp_.n = 63;
    warmUp_.ratio = Ratio{7.5, 3.25, 1.0};
    warmUp_.tier = PlanTier::kSearch;
    warmUp_.searchRuns = 2;
  }

  void configure(Instance& in, OracleOptions& oo, Trace* trace) override {
    // The atlas: built single-threaded, saved, and served from the reload.
    AtlasBuildOptions build;
    build.spec.prMin = 1.0;
    build.spec.prMax = 20.0;
    build.spec.prSteps = 58;
    build.spec.rrMin = 1.0;
    build.spec.rrMax = 10.0;
    build.spec.rrSteps = 28;
    build.info.n = 96;
    build.threads = 1;
    std::shared_ptr<PlanAtlas> built;
    {
      ScopedSpan span(trace, "atlas.build", -1);
      built = pushpart::buildAtlas(build);
    }
    const std::string path = options_.workDir + "/perfbench-atlas-" +
                             std::to_string(::getpid()) + ".txt";
    {
      ScopedSpan span(trace, "atlas.save", -1);
      pushpart::saveAtlas(*built, path);
    }
    pushpart::AtlasLoadReport loaded;
    {
      ScopedSpan span(trace, "atlas.load", -1);
      loaded = pushpart::tryLoadAtlas(path);
    }
    std::remove(path.c_str());
    if (!loaded.clean())
      throw std::runtime_error("atlas reload failed: " + loaded.error);
    in.atlas = loaded.atlas;
    oo.atlas = in.atlas;
    oo.cacheCapacity = kPlanServeCache;
  }

  void runOp(Instance& in, std::size_t job, Trace* trace, std::int64_t op,
             int parent, OpRecord& rec) override {
    rec.response = callPlan(in, request(job), trace, op, parent, rec);
  }

  std::string checkOp(Instance& in, const OpRecord& rec, std::size_t job,
                      double& regret) override {
    // An atlas answer is checked against the exact tier-A best, which is
    // what the live search would serve too, without running its batch.
    PlanRequest req = request(job);
    if (rec.response.answer.atlasServed) req.tier = PlanTier::kFast;
    return checkAnswer(rec.response, reference(req, job),
                       in.oracle->options().atlasGapPct, regret);
  }

 private:
  PlanServeInputs inputs_;
  PlanRequest warmUp_;
};

// search-cold -----------------------------------------------------------------

class SearchCold final : public Workload {
 public:
  using Workload::Workload;

  /// One long round: the DFA work varies from key to key, so more keys
  /// steady the percentiles more than repeating them would.
  int rounds() const override { return 1; }
  std::size_t opCount() const override {
    return opsFor(options_.seconds, kSearchColdRate, rounds());
  }
  std::vector<std::string> modes() const override { return {"tier-b"}; }
  std::size_t modeOf(std::size_t, const OpRecord&) const override {
    return 0;
  }
  const PlanRequest& request(std::size_t op) const override {
    return op == kWarmUp ? warmUp_ : requests_[op];
  }

 protected:
  void generate() override {
    requests_ = makeSearchCold(options_.seed, opCount());
    // The same at every seed, below the stream's sizes: a key no op sends.
    warmUp_.n = 95;
    warmUp_.ratio = Ratio{5, 2, 1};
    warmUp_.tier = PlanTier::kSearch;
    warmUp_.searchRuns = 2;
  }

  void configure(Instance&, OracleOptions&, Trace*) override {}

  void runOp(Instance& in, std::size_t job, Trace* trace, std::int64_t op,
             int parent, OpRecord& rec) override {
    rec.response = callPlan(in, request(job), trace, op, parent, rec);
  }

  std::string checkOp(Instance& in, const OpRecord& rec, std::size_t job,
                      double& regret) override {
    if (sourceOf(rec.response) != Source::kTierB && !rec.response.shed)
      return "not served by a tier-B search";
    return checkAnswer(rec.response, reference(request(job), job),
                       in.oracle->options().atlasGapPct, regret);
  }

  /// The element-exact reference: the same requests on the grid engine.
  Oracle& referenceOracle() override {
    if (!referenceOracle_) {
      OracleOptions oo;
      oo.searchEngine = pushpart::BatchEngine::kGrid;
      referenceOracle_ = std::make_unique<Oracle>(std::move(oo));
    }
    return *referenceOracle_;
  }

 private:
  std::vector<PlanRequest> requests_;
  PlanRequest warmUp_;
};

// product ---------------------------------------------------------------------

class Product final : public Workload {
 public:
  using Workload::Workload;

  int rounds() const override { return 3; }
  std::size_t opCount() const override {
    return opsFor(options_.seconds, kProductRate, rounds());
  }
  std::vector<std::string> modes() const override {
    return {"small", "large"};
  }
  std::size_t modeOf(std::size_t op, const OpRecord&) const override {
    return jobs_[op].large ? 1 : 0;
  }
  const PlanRequest& request(std::size_t op) const override {
    return job(op).request;
  }

  void layerExtras(Instance& in, Trace& trace,
                   std::map<std::string, double>& out) override;

 protected:
  void generate() override {
    jobs_ = makeProduct(options_.seed, opCount());
    // n = 320 lies between the two size classes.
    warmUp_.request.n = 320;
    warmUp_.request.ratio = Ratio{5, 2, 1};
    warmUp_.execSeed = 1;
  }

  void configure(Instance&, OracleOptions&, Trace*) override {}

  void runOp(Instance& in, std::size_t jobIndex, Trace* trace,
             std::int64_t op, int parent, OpRecord& rec) override {
    const ProductJob& j = job(jobIndex);
    const PlanRequest& req = j.request;
    rec.response = callPlan(in, req, trace, op, parent, rec);
    if (rec.response.shed) return;
    ProductOutcome& out = rec.product;
    out.ran = true;
    out.n = req.n;
    Machine machine = in.oracle->options().machine;
    machine.ratio = req.ratio;
    const Partition q = [&] {
      ScopedSpan span(trace, "shapes.make_candidate", op, parent);
      return pushpart::makeCandidate(rec.response.answer.shape, req.n,
                                     req.ratio);
    }();
    std::vector<pushpart::PivotTransfers> plan;
    {
      ScopedSpan span(trace, "plan.build", op, parent);
      plan = pushpart::buildElementPlan(q);
    }
    {
      ScopedSpan span(trace, "plan.verify", op, parent);
      out.planVerified = pushpart::verifyElementPlan(q, plan);
    }
    for (const auto& pivot : plan)
      out.transfers += static_cast<std::int64_t>(pivot.size());
    {
      ScopedSpan span(trace, "sim.simulate", op, parent);
      SimOptions so;
      so.machine = machine;
      out.sim = pushpart::simulateMMM(req.algo, q, so);
    }
    {
      ScopedSpan span(trace, "exec.run", op, parent);
      out.execSpan = span.id();
      ExecOptions eo;
      eo.machine = machine;
      eo.verify = true;
      eo.seed = j.execSeed;
      eo.quantumMacs = kQuantumMacs;
      out.exec = pushpart::runParallelMMM(req.algo, q, eo);
    }
  }

  std::string checkOp(Instance& in, const OpRecord& rec, std::size_t jobIndex,
                      double& regret) override {
    const PlanRequest& req = job(jobIndex).request;
    double planRegret = 1.0;
    std::string why = checkAnswer(rec.response, reference(req, jobIndex),
                                  in.oracle->options().atlasGapPct, planRegret);
    if (!why.empty()) return why;
    const ProductOutcome& p = rec.product;
    if (!p.planVerified) return "verifyElementPlan rejected the comm plan";
    if (p.transfers != rec.response.answer.voc)
      return "comm plan moves " + std::to_string(p.transfers) +
             " elements, the answer's VoC is " +
             std::to_string(rec.response.answer.voc);
    if (!p.sim.completed) return "simulation did not complete";
    if (!p.exec.verified) return "executor skipped verification";
    const double tol = reassociationTolerance(req.n);
    if (!(p.exec.maxAbsError <= tol)) {
      std::ostringstream os;
      os << "max |C - C_serial| = " << p.exec.maxAbsError
         << " exceeds the tolerance " << tol;
      return os.str();
    }
    regret = p.sim.execSeconds / bestSimSeconds(in, req);
    return {};
  }

 private:
  const ProductJob& job(std::size_t i) const {
    return i == kWarmUp ? warmUp_ : jobs_[i];
  }

  /// The fastest simulated time among the feasible canonical shapes.
  double bestSimSeconds(Instance& in, const PlanRequest& req) {
    const std::string key = std::to_string(req.n) + "|" + req.ratio.str() +
                            "|" + pushpart::algoName(req.algo);
    auto it = bestSim_.find(key);
    if (it != bestSim_.end()) return it->second;
    SimOptions so;
    so.machine = in.oracle->options().machine;
    so.machine.ratio = req.ratio;
    double best = 0.0;
    for (pushpart::CandidateShape shape : pushpart::kAllCandidates) {
      if (!pushpart::candidateFeasible(shape, req.n, req.ratio)) continue;
      const double t =
          pushpart::simulateMMM(req.algo,
                                pushpart::makeCandidate(shape, req.n, req.ratio),
                                so)
              .execSeconds;
      if (best == 0.0 || t < best) best = t;
    }
    return bestSim_.emplace(key, best).first->second;
  }

  std::vector<ProductJob> jobs_;
  ProductJob warmUp_;
  std::unordered_map<std::string, double> bestSim_;
};

void Product::layerExtras(Instance& in, Trace& trace,
                          std::map<std::string, double>& out) {
  std::vector<double> modeled, wall, busyMax, verify;
  double busySum = 0.0, wallSum = 0.0;
  double macs = 0.0, transfers = 0.0;
  double classMacs[2] = {0.0, 0.0}, classBusy[2] = {0.0, 0.0};
  std::set<int> sizes;
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const ProductOutcome& p = in.ops[i].product;
    if (!p.ran || !in.ops[i].error.empty()) continue;
    const int n = jobs_[i].request.n;
    const double opMacs = std::pow(static_cast<double>(n), 3);
    const double busy = std::accumulate(p.exec.computeSeconds.begin(),
                                        p.exec.computeSeconds.end(), 0.0);
    modeled.push_back(p.sim.execSeconds * 1e3);
    wall.push_back(p.exec.wallSeconds * 1e3);
    busyMax.push_back(*std::max_element(p.exec.computeSeconds.begin(),
                                        p.exec.computeSeconds.end()) *
                      1e3);
    verify.push_back(
        (static_cast<double>(trace.span(p.execSpan).durationNs()) * 1e-9 -
         p.exec.wallSeconds) *
        1e3);
    busySum += busy;
    wallSum += p.exec.wallSeconds;
    macs += opMacs;
    transfers += static_cast<double>(p.transfers);
    classMacs[jobs_[i].large ? 1 : 0] += opMacs;
    classBusy[jobs_[i].large ? 1 : 0] += busy;
    sizes.insert(n);
  }
  out["sim.modeled_ms"] = median(modeled);
  out["exec.wall_ms"] = median(wall);
  out["exec.busy_max_ms"] = median(busyMax);
  out["exec.verify_ms"] = median(verify);
  out["exec.idle_share"] =
      wallSum > 0.0 ? 1.0 - busySum / (pushpart::kNumProcs * wallSum) : 0.0;
  out["exec.macs"] = macs;
  out["plan.transfers"] = transfers;
  out["exec.gmacs_s.small"] =
      classBusy[0] > 0.0 ? classMacs[0] / classBusy[0] * 1e-9 : 0.0;
  out["exec.gmacs_s.large"] =
      classBusy[1] > 0.0 ? classMacs[1] / classBusy[1] * 1e-9 : 0.0;

  // Serial baseline at the same sizes, one multiply per distinct size.
  double serialMacs = 0.0;
  std::int64_t serialNs = 0;
  for (int n : sizes) {
    pushpart::Rng rng(static_cast<std::uint64_t>(n));
    const pushpart::Matrix a = pushpart::randomMatrix(n, rng);
    const pushpart::Matrix b = pushpart::randomMatrix(n, rng);
    const int id = trace.open("probe.multiply_serial", -1);
    const pushpart::Matrix c = pushpart::multiplySerial(a, b);
    trace.close(id);
    serialNs += trace.span(id).durationNs();
    serialMacs += std::pow(static_cast<double>(n), 3);
    if (!(std::isfinite(c.at(0, 0))))
      throw std::runtime_error("serial probe produced a non-finite value");
  }
  out["exec.serial_gmacs_s"] =
      serialNs > 0 ? serialMacs / (static_cast<double>(serialNs) * 1e-9) * 1e-9
                   : 0.0;
}

std::unique_ptr<Workload> makeWorkload(const RunOptions& options) {
  if (options.workload == "plan-serve")
    return std::make_unique<PlanServe>(options);
  if (options.workload == "search-cold")
    return std::make_unique<SearchCold>(options);
  if (options.workload == "product") return std::make_unique<Product>(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

// -- Reporting ----------------------------------------------------------------

double peakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// Per-mode op counts, and whether p50 and the tail each land inside one
/// mode away from its edges.
void modeLines(const Workload& w, const Instance& in, const TailChoice& tail,
               RunReport& report) {
  const std::vector<std::string> names = w.modes();
  std::vector<std::size_t> counts(names.size(), 0);
  for (std::size_t i = 0; i < in.ops.size(); ++i)
    ++counts[w.modeOf(i, in.ops[i])];
  std::string shares = "modes:";
  for (std::size_t m = 0; m < names.size(); ++m)
    shares += " " + names[m] + "=" + std::to_string(counts[m]);
  report.lines.push_back(shares);
  const std::size_t n = in.ops.size();
  const std::size_t margin =
      std::max<std::size_t>(2, static_cast<std::size_t>(
                                   std::ceil(0.005 * static_cast<double>(n))));
  for (const auto& [label, q] :
       {std::pair<std::string, double>{"p50", 0.5}, {tail.label(), tail.q}}) {
    const ModePlacement at = placeInModes(counts, q, margin);
    report.lines.push_back(
        "mode check: " + label + " in " + names[at.mode] + ", " +
        std::to_string(at.distance) + " samples from a mode edge (margin " +
        std::to_string(margin) + "): " + (at.inside ? "ok" : "AT A BOUNDARY"));
  }
}

/// Deterministic work counts of one round: they repeat exactly at one seed.
std::string counterLine(const Instance& in) {
  const OracleStats s = in.oracle->stats();
  const OracleStats& b = in.baseline;
  std::uint64_t walks = 0, transfers = 0, macs = 0;
  for (const OpRecord& rec : in.ops) {
    if (sourceOf(rec.response) == Source::kTierB)
      walks += static_cast<std::uint64_t>(rec.response.answer.searchCompleted);
    if (rec.product.ran) {
      transfers += static_cast<std::uint64_t>(rec.product.transfers);
      const auto n = static_cast<std::uint64_t>(rec.product.n);
      macs += n * n * n;
    }
  }
  std::ostringstream os;
  os << "counters: ops=" << in.ops.size()
     << " source_cache=" << s.sourceCache - b.sourceCache
     << " source_atlas=" << s.sourceAtlas - b.sourceAtlas
     << " source_tier_a=" << s.sourceTierA - b.sourceTierA
     << " source_tier_b=" << s.sourceTierB - b.sourceTierB
     << " hits=" << s.cache.hits - b.cache.hits
     << " misses=" << s.cache.misses - b.cache.misses
     << " evictions=" << s.cache.evictions - b.cache.evictions
     << " atlas_certified=" << s.atlasServed - b.atlasServed
     << " dfa_walks=" << walks << " plan_transfers=" << transfers
     << " exec_macs=" << macs;
  return os.str();
}

/// Probe and replay passes on the traced instance, reported apart from the
/// op spans: canonicalize on every op, back to back; then selectOptimal,
/// vocLowerBound and the atlas lookup on each cold key, and a runBatch
/// replay of each tier-B solve with the batch options the oracle used.
void runProbes(const Workload& w, Instance& in, Trace& trace) {
  const OracleOptions& oo = in.oracle->options();
  std::vector<PlanRequest> canonical;
  canonical.reserve(in.ops.size());
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const int span = trace.open("probe.canonicalize", static_cast<std::int64_t>(i));
    CanonicalKey key = pushpart::canonicalize(w.request(i));
    trace.close(span);
    canonical.push_back(std::move(key.request));
  }
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const auto op = static_cast<std::int64_t>(i);
    const OpRecord& rec = in.ops[i];
    if (rec.solveSpan < 0) continue;  // a cache hit: not a cold key
    const PlanRequest& req = canonical[i];
    Machine machine = oo.machine;
    machine.ratio = req.ratio;
    {
      ScopedSpan span(&trace, "probe.select_optimal", op);
      (void)pushpart::selectOptimal(req.algo, req.n, machine, req.topology,
                                    req.star);
    }
    {
      ScopedSpan span(&trace, "probe.voc_lower_bound", op);
      (void)pushpart::vocLowerBound(req.n, req.ratio);
    }
    if (in.atlas && req.tier == PlanTier::kSearch) {
      ScopedSpan span(&trace, "probe.atlas_lookup", op);
      (void)in.atlas->lookup(req.ratio);
    }
    if (sourceOf(rec.response) != Source::kTierB) continue;
    BatchOptions batch;
    batch.n = req.n;
    batch.ratio = req.ratio;
    batch.runs = req.searchRuns;
    batch.threads = oo.searchThreads;
    batch.seed = req.searchSeed;
    batch.engine = oo.searchEngine;
    batch.dfa.cancelCheckEvery = oo.cancelCheckEvery;
    ReplayCounts counts;
    const int span = trace.open("replay.run_batch", op);
    const pushpart::BatchSummary summary =
        pushpart::runBatch(batch, [&counts](const BatchRun& run) {
          ++counts.walks;
          counts.pushes += run.result.pushesApplied;
          counts.sweeps += run.result.sweeps;
        });
    trace.close(span);
    if (!summary.allCompleted())
      throw std::runtime_error("runBatch replay did not complete");
    in.replay.walks += counts.walks;
    in.replay.pushes += counts.pushes;
    in.replay.sweeps += counts.sweeps;
  }
}

struct LayerDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports, in output order. A metric
/// whose layer does no work in a workload reads 0 there.
constexpr LayerDef kLayers[] = {
    {"serve.hit_us", "us"},
    {"serve.canonicalize_us", "us"},
    {"serve.miss_overhead_us", "us"},
    {"serve.hit_ratio", "ratio"},
    {"serve.evictions", "count"},
    {"serve.source_cache", "count"},
    {"serve.source_atlas", "count"},
    {"serve.source_tier_a", "count"},
    {"serve.source_tier_b", "count"},
    {"model.rank_ms", "ms"},
    {"model.tier_a_busy_share", "ratio"},
    {"bounds.lower_bound_us", "us"},
    {"atlas.build_s", "s"},
    {"atlas.save_ms", "ms"},
    {"atlas.load_ms", "ms"},
    {"atlas.lookup_us", "us"},
    {"atlas.certified_ratio", "ratio"},
    {"atlas.solve_ms", "ms"},
    {"dfa.solve_ms", "ms"},
    {"dfa.walk_ms", "ms"},
    {"dfa.walks", "count"},
    {"dfa.pushes_applied", "count"},
    {"dfa.sweeps", "count"},
    {"dfa.us_per_push", "us"},
    {"dfa.busy_share", "ratio"},
    {"shapes.make_candidate_ms", "ms"},
    {"plan.build_ms", "ms"},
    {"plan.verify_ms", "ms"},
    {"plan.transfers", "count"},
    {"sim.call_ms", "ms"},
    {"sim.modeled_ms", "ms"},
    {"exec.wall_ms", "ms"},
    {"exec.busy_max_ms", "ms"},
    {"exec.idle_share", "ratio"},
    {"exec.verify_ms", "ms"},
    {"exec.macs", "count"},
    {"exec.gmacs_s.small", "GMAC/s"},
    {"exec.gmacs_s.large", "GMAC/s"},
    {"exec.serial_gmacs_s", "GMAC/s"},
    {"trace.overhead_pct", "%"},
};

bool isOpSpan(const Span& s) {
  const std::string name = s.name;
  return s.op >= 0 && name.rfind("probe.", 0) != 0 &&
         name.rfind("replay.", 0) != 0;
}

/// Per-layer metrics of the traced pass, plus the trace's own consistency
/// check: no span's children add up to more than the span, and no layer is
/// busy for longer than the ops that contain it.
std::map<std::string, double> layerMetrics(Workload& w, const Instance& base,
                                           Instance& in, Trace& trace,
                                           RunReport& report) {
  std::map<std::string, double> out;
  for (const LayerDef& d : kLayers) out[d.name] = 0.0;
  const std::vector<Span>& spans = trace.spans();
  const std::vector<std::int64_t> self = trace.selfTimes();

  std::map<std::string, std::vector<double>> durations;  // seconds
  std::map<std::string, double> busy;                    // op spans only
  std::vector<std::int64_t> childSum(spans.size(), 0);
  std::vector<int> childCount(spans.size(), 0);
  for (const Span& s : spans) {
    durations[s.name].push_back(static_cast<double>(s.durationNs()) * 1e-9);
    if (isOpSpan(s)) busy[s.name] += static_cast<double>(s.durationNs()) * 1e-9;
    if (s.parent >= 0) {
      childSum[static_cast<std::size_t>(s.parent)] += s.durationNs();
      ++childCount[static_cast<std::size_t>(s.parent)];
    }
  }
  std::size_t violations = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Hook-derived solve bounds can misalign by clock reads: 100 ns each.
    if (childSum[i] > spans[i].durationNs() + 100 * (childCount[i] + 1))
      ++violations;
  }
  const double opTime = busy["op"];
  for (const auto& [name, seconds] : busy)
    if (seconds > opTime * (1.0 + 1e-9)) ++violations;
  report.lines.push_back("trace check: " + std::to_string(spans.size()) +
                         " spans, " + std::to_string(violations) +
                         " where children outlast their parent");
  if (violations > 0) report.correct = false;

  const auto med = [&](const char* name, double scale) {
    const auto it = durations.find(name);
    return it == durations.end() ? 0.0 : median(it->second) * scale;
  };
  const auto share = [&](const char* name) {
    return opTime > 0.0 ? busy[name] / opTime : 0.0;
  };

  std::vector<double> hitUs, missOverheadUs;
  for (const OpRecord& rec : in.ops) {
    if (rec.planSpan < 0) continue;
    const auto plan = static_cast<std::size_t>(rec.planSpan);
    if (rec.solveSpan < 0)
      hitUs.push_back(static_cast<double>(spans[plan].durationNs()) * 1e-3);
    else
      missOverheadUs.push_back(static_cast<double>(self[plan]) * 1e-3);
  }
  out["serve.hit_us"] = median(hitUs);
  out["serve.miss_overhead_us"] = median(missOverheadUs);
  out["serve.canonicalize_us"] = med("probe.canonicalize", 1e6);

  const OracleStats s = in.oracle->stats();
  const OracleStats& b = in.baseline;
  const auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  out["serve.hit_ratio"] =
      in.ops.empty() ? 0.0
                     : delta(s.cache.hits, b.cache.hits) /
                           static_cast<double>(in.ops.size());
  out["serve.evictions"] = delta(s.cache.evictions, b.cache.evictions);
  out["serve.source_cache"] = delta(s.sourceCache, b.sourceCache);
  out["serve.source_atlas"] = delta(s.sourceAtlas, b.sourceAtlas);
  out["serve.source_tier_a"] = delta(s.sourceTierA, b.sourceTierA);
  out["serve.source_tier_b"] = delta(s.sourceTierB, b.sourceTierB);
  const double searchSolves =
      out["serve.source_atlas"] + out["serve.source_tier_b"];
  out["atlas.certified_ratio"] =
      searchSolves > 0.0 ? out["serve.source_atlas"] / searchSolves : 0.0;

  out["model.rank_ms"] = med("probe.select_optimal", 1e3);
  out["model.tier_a_busy_share"] = share("model.solve");
  out["bounds.lower_bound_us"] = med("probe.voc_lower_bound", 1e6);
  out["atlas.build_s"] = med("atlas.build", 1.0);
  out["atlas.save_ms"] = med("atlas.save", 1e3);
  out["atlas.load_ms"] = med("atlas.load", 1e3);
  out["atlas.lookup_us"] = med("probe.atlas_lookup", 1e6);
  out["atlas.solve_ms"] = med("atlas.solve", 1e3);
  out["dfa.solve_ms"] = med("dfa.solve", 1e3);
  out["dfa.walk_ms"] = med("dfa.walk", 1e3);
  out["dfa.walks"] = static_cast<double>(in.replay.walks);
  out["dfa.pushes_applied"] = static_cast<double>(in.replay.pushes);
  out["dfa.sweeps"] = static_cast<double>(in.replay.sweeps);
  const auto replay = durations.find("replay.run_batch");
  const double replaySeconds =
      replay == durations.end()
          ? 0.0
          : std::accumulate(replay->second.begin(), replay->second.end(), 0.0);
  out["dfa.us_per_push"] =
      in.replay.pushes > 0
          ? replaySeconds * 1e6 / static_cast<double>(in.replay.pushes)
          : 0.0;
  out["dfa.busy_share"] = share("dfa.solve");
  out["shapes.make_candidate_ms"] = med("shapes.make_candidate", 1e3);
  out["plan.build_ms"] = med("plan.build", 1e3);
  out["plan.verify_ms"] = med("plan.verify", 1e3);
  out["sim.call_ms"] = med("sim.simulate", 1e3);
  w.layerExtras(in, trace, out);

  double tracedSeconds = 0.0, plainSeconds = 0.0;
  for (const OpRecord& rec : in.ops) tracedSeconds += rec.seconds;
  for (const OpRecord& rec : base.ops) plainSeconds += rec.seconds;
  out["trace.overhead_pct"] =
      plainSeconds > 0.0 ? (tracedSeconds - plainSeconds) / plainSeconds * 100.0
                         : 0.0;
  return out;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"plan-serve", "search-cold",
                                                 "product"};
  return names;
}

RunReport runWorkload(const RunOptions& options, Clock::time_point mainStart) {
  RunReport report;
  const std::unique_ptr<Workload> w = makeWorkload(options);

  // Each round is a fresh set-up followed by the whole op stream, so every
  // round does identical work. An op's latency is its median over the
  // rounds, which discards a slow spell that hits one round. A traced run
  // has two rounds: one untraced, one traced.
  // setup_s is the median of at least five set-ups, so a run with fewer
  // rounds sets up a few extra times first.
  const int rounds = options.trace ? 2 : w->rounds();
  const int extraSetUps = std::max(0, 5 - rounds);
  std::vector<std::vector<double>> perOpMs(w->opCount());
  std::vector<double> setupSeconds, roundRates, regret;
  std::string counters;
  Trace trace;
  std::unique_ptr<Instance> untraced, last;
  for (int k = 0; k < extraSetUps + rounds; ++k) {
    const int r = k - extraSetUps;
    Trace* t = options.trace && r == rounds - 1 ? &trace : nullptr;
    const auto t0 = k == 0 ? mainStart : Clock::now();
    std::unique_ptr<Instance> in = w->setUp(t);
    setupSeconds.push_back(secondsSince(t0));
    if (r < 0) continue;
    w->run(*in, t);

    // References, computed outside the timed pass.
    const Workload::CheckResult c = w->check(*in);
    report.attempted += in->ops.size();
    report.failed += c.failed;
    regret.insert(regret.end(), c.regret.begin(), c.regret.end());
    for (const std::string& f : c.firstFailures)
      report.lines.push_back("FAILED round " + std::to_string(r) + " " + f);
    double completed = 0.0;
    for (std::size_t i = 0; i < in->ops.size(); ++i) {
      completed += in->ops[i].error.empty();
      if (!t) perOpMs[i].push_back(in->ops[i].seconds * 1e3);
    }
    roundRates.push_back(completed / in->wallSeconds);

    // Work counters must repeat exactly from round to round.
    const std::string line = counterLine(*in);
    if (r == 0) {
      counters = line;
    } else if (line != counters) {
      ++report.failed;
      report.lines.push_back("FAILED round " + std::to_string(r) +
                             " counters differ from round 0: " + line);
    }
    if (options.trace && !t) untraced = std::move(in);
    last = std::move(in);
  }
  report.correct = report.failed == 0;
  report.lines.push_back(counters);

  std::vector<double> latencyMs;
  for (auto& samples : perOpMs) latencyMs.push_back(median(samples));
  const TailChoice tail = chooseTail(latencyMs.size());
  modeLines(*w, *last, tail, report);
  report.lines.push_back(
      "latency over " + std::to_string(latencyMs.size()) +
      " ops: p50=" + fmt("%.4f", quantile(latencyMs, 0.5)) +
      " ms p90=" + fmt("%.4f", quantile(latencyMs, 0.9)) +
      " ms p99=" + fmt("%.4f", quantile(latencyMs, 0.99)) + " ms; tail=" +
      tail.label() + " with " + std::to_string(tail.beyond) +
      " samples beyond" + (tail.enough ? "" : " (fewer than 10)"));
  report.lines.push_back(
      "fail_ratio=" +
      fmt("%.6g", static_cast<double>(report.failed) /
                      static_cast<double>(std::max<std::uint64_t>(
                          1, report.attempted))));

  if (options.trace) {
    runProbes(*w, *last, trace);
    const std::map<std::string, double> layers =
        layerMetrics(*w, *untraced, *last, trace, report);
    for (const LayerDef& d : kLayers)
      report.metrics.push_back(Metric{d.name, layers.at(d.name), d.unit});
    const std::string path = options.workDir + "/perfbench-trace-" +
                             options.workload + "-seed" +
                             std::to_string(options.seed) + ".jsonl";
    std::ofstream os(path);
    trace.write(os);
    report.lines.push_back("trace: " + std::to_string(trace.spans().size()) +
                           " spans written to " + path);
    return report;
  }

  const double meanRegret =
      regret.empty() ? 0.0
                     : std::accumulate(regret.begin(), regret.end(), 0.0) /
                           static_cast<double>(regret.size());
  report.metrics = {
      {"setup_s", median(setupSeconds), "s"},
      {"lat_p50_ms", quantile(latencyMs, 0.5), "ms"},
      {"lat_tail_ms", quantile(latencyMs, tail.q), "ms"},
      {"throughput_ops_s", median(roundRates), "ops/s"},
      {"plan_regret", meanRegret, "x"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
  return report;
}

}  // namespace perfbench
