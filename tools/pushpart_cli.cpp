// pushpart — command-line front end to the partition-shape library.
//
//   pushpart search    --n=60 --ratio=5:2:1 [--seed=1] [--out=shape.pp]
//   pushpart classify  --in=shape.pp
//   pushpart voc       --in=shape.pp
//   pushpart recommend --n=120 --ratio=10:1:1 [--algo=SCB] [--topology=full]
//                      [--bandwidth-mbs=1000] [--flops=1e9] [--out=shape.pp]
//   pushpart plan      --n=1000 --ratio=5:2:1 [--algo=SCB] [--tier=fast|search]
//                      [--runs=16] [--seed=1] [--topology=full|star] [--hub=P]
//                      [--bandwidth-mbs=1000] [--flops=1e9] [--repl]
//                      [--deadline-ms=50] [--max-concurrency=4] [--max-queue=16]
//                      [--snapshot=plans.snap] [--atlas=surface.atlas]
//                      [--atlas-gap-pct=5] [--no-atlas-prefetch]
//                      [--adaptive --observed-ratio=4:2:1 --phases=6
//                       --stale-gap-pct=5 --hysteresis=2 --min-replan-s=0]
//   pushpart drift     [--phases=120] [--seed=42] [--n=96] [--algo=SCB]
//                      [--wander=0.05] [--drill=slow|kill|none] [--node=0]
//                      [--at=30] [--until=60] [--factor=2]
//                      [--stale-gap-pct=5] [--hysteresis=2] [--min-replan-s=0]
//                      [--tier=fast|search] [--atlas=surface.atlas]
//                      [--regret-bound=1.25]
//   pushpart atlas     build --out=surface.atlas [grid/build flags]
//                      | inspect --file=surface.atlas
//                      | query --file=surface.atlas --ratio=7:2:1 [--n=1000]
//                        [--gap-pct=5]
//   pushpart cluster   [--nodes=3] [--replication=2] [--vnodes=32] [--seed=1]
//                      [--drill=kill|flap|partition|slow|none] [--node=1]
//                      [--at=1.0] [--until=2.5] [--duration=4.0]
//                      [--requests=400] [--keys=32] [--heartbeat-drop=0]
//   pushpart commplan  --in=shape.pp [--csv=plan.csv]
//   pushpart faults    --in=shape.pp --ratio=5:2:1 [--algo=SCB] [--drop=0.05]
//                      [--death-proc=R] [--death-frac=0.5 | --death-at=<s>]
//                      [--seed=1] [--timeout=1e-3] [--max-attempts=8]
//                      [--no-rebalance]
//   pushpart verify    [--deep] [--seed=1] [--corpus=tests/corpus]
//                      [--artifacts=verify-artifacts]
//
// `search` runs one randomized DFA condensation and (optionally) saves the
// condensed partition in the pushpart-partition v1 text format; `classify`,
// `voc` and `commplan` operate on saved partitions; `recommend` ranks the
// six canonical candidates for a machine and can save the winner; `plan`
// asks the serving-layer oracle (src/serve) for the optimal shape — cached,
// canonicalized, tier A (ranked candidates) or tier B (candidates
// cross-checked by a budgeted DFA search) — and with --repl answers one
// request per stdin line against a shared cache. Under load `plan` degrades
// rather than queues: --deadline-ms bounds each request (expired searches
// are cancelled cooperatively and served truncated or closed-form-only),
// --max-concurrency/--max-queue bound admission (beyond them requests are
// shed), and --snapshot warm-starts the answer cache from a file on entry
// and persists it back (durable publish) on exit, reporting exactly what
// loaded (entries restored, corrupt entries skipped, version refusals — a
// refused snapshot starts cold instead of aborting); `plan --adaptive`
// wraps the oracle in an AdaptiveSession (src/adapt): it plans at --ratio,
// then feeds --phases synthetic telemetry phases at --observed-ratio and
// shows the drift verdicts and any invalidate-and-replan the session
// performs; `drift` runs the seeded drift drill (src/adapt/drill.hpp):
// speeds wander, one scripted fault throttles or kills a node, and the
// adaptive session's replans are scored against an omniscient per-phase
// oracle — the command fails unless regret stays within --regret-bound and
// the session re-converges after the fault window; `cluster` runs a
// seeded, replayable fault drill against a replicated oracle cluster
// (src/cluster): N nodes behind a consistent-hash router with k-way cache
// replication, driven on a fake clock through one scripted fault (a node
// kill with rejoin and rebalance, a flap, a router-link partition, or a
// slow node) while a synthetic workload measures availability; `faults`
// replays a saved
// partition through the fault-injected simulator and reports the
// retry/recovery behaviour next to the fault-free baseline; `verify` runs
// the property-based verification suite (src/verify): push/DFA/serialize
// invariants with shrinking, the exhaustive small-N differential sweep, and
// replay of the checked-in counterexample corpus. All commands accept
// --log-level=debug|info|warn|error.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "adapt/drill.hpp"
#include "atlas/builder.hpp"
#include "atlas/io.hpp"
#include "cluster/cluster.hpp"
#include "dfa/dfa.hpp"
#include "family/rank.hpp"
#include "grid/builder.hpp"
#include "grid/metrics.hpp"
#include "grid/render.hpp"
#include "grid/serialize.hpp"
#include "model/optimal.hpp"
#include "plan/comm_plan.hpp"
#include "serve/oracle.hpp"
#include "shapes/archetype.hpp"
#include "sim/mmm_sim.hpp"
#include "support/csv.hpp"
#include "support/flags.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "verify/suite.hpp"

using namespace pushpart;

namespace {

int usage() {
  std::cerr <<
      "usage: pushpart <command> [flags]\n"
      "  search    --n=60 --ratio=5:2:1 [--seed=1] [--out=shape.pp]\n"
      "  classify  --in=shape.pp\n"
      "  voc       --in=shape.pp\n"
      "  recommend --n=120 --ratio=10:1:1 [--algo=SCB] [--topology=full|star]\n"
      "            [--families=canonical|all|layered,...]\n"
      "            [--bandwidth-mbs=1000] [--flops=1e9] [--out=shape.pp]\n"
      "  plan      --n=1000 --ratio=5:2:1 [--algo=SCB] [--tier=fast|search]\n"
      "            [--runs=16] [--seed=1] [--topology=full|star] [--hub=P]\n"
      "            [--bandwidth-mbs=1000] [--flops=1e9] [--repl]\n"
      "            [--deadline-ms=50] [--max-concurrency=4] [--max-queue=16]\n"
      "            [--snapshot=plans.snap] [--atlas=surface.atlas]\n"
      "            [--atlas-gap-pct=5] [--no-atlas-prefetch]\n"
      "            [--families=canonical|all|layered,...]\n"
      "            [--adaptive --observed-ratio=4:2:1 --phases=6\n"
      "             --stale-gap-pct=5 --hysteresis=2 --min-replan-s=0]\n"
      "  drift     [--phases=120] [--seed=42] [--n=96] [--algo=SCB]\n"
      "            [--wander=0.05] [--drill=slow|kill|none] [--node=0]\n"
      "            [--at=30] [--until=60] [--factor=2]\n"
      "            [--stale-gap-pct=5] [--hysteresis=2] [--min-replan-s=0]\n"
      "            [--tier=fast|search] [--atlas=surface.atlas]\n"
      "            [--regret-bound=1.25]\n"
      "  atlas     build --out=surface.atlas [--pr-min=1 --pr-max=20\n"
      "            --pr-steps=20 --rr-min=1 --rr-max=10 --rr-steps=10]\n"
      "            [--n=96] [--algo=SCB] [--search-runs=0] [--seed=1]\n"
      "            [--tie-pct=1] [--threads=0] [--bandwidth-mbs=1000]\n"
      "            [--flops=1e9]\n"
      "  atlas     inspect --file=surface.atlas\n"
      "  atlas     query --file=surface.atlas --ratio=7:2:1 [--n=1000]\n"
      "            [--gap-pct=5]\n"
      "  cluster   [--nodes=3] [--replication=2] [--vnodes=32] [--seed=1]\n"
      "            [--drill=kill|flap|partition|slow|none] [--node=1]\n"
      "            [--at=1.0] [--until=2.5] [--duration=4.0]\n"
      "            [--requests=400] [--keys=32] [--heartbeat-drop=0]\n"
      "  commplan  --in=shape.pp [--csv=plan.csv]\n"
      "  faults    --in=shape.pp --ratio=5:2:1 [--algo=SCB] [--drop=0.05]\n"
      "            [--death-proc=R] [--death-frac=0.5 | --death-at=<s>]\n"
      "            [--seed=1] [--timeout=1e-3] [--max-attempts=8]\n"
      "            [--no-rebalance]\n"
      "  verify    [--deep] [--seed=1] [--corpus=tests/corpus]\n"
      "            [--artifacts=verify-artifacts]\n"
      "global: --log-level=debug|info|warn|error\n";
  return 2;
}

Algo parseAlgo(const Flags& flags, const char* fallback) {
  const std::string algoStr = flags.str("algo", fallback);
  for (Algo a : kAllAlgos)
    if (algoStr == algoName(a)) return a;
  throw std::invalid_argument("unknown --algo=" + algoStr);
}

Machine machineFromFlags(const Flags& flags, const char* defaultRatio) {
  Machine machine;
  machine.ratio = Ratio::parse(flags.str("ratio", defaultRatio));
  machine.sendElementSeconds =
      8.0 / (flags.f64("bandwidth-mbs", 1000.0) * 1e6);
  machine.baseFlopSeconds = 1.0 / flags.f64("flops", 1e9);
  return machine;
}

Partition loadInput(const Flags& flags) {
  const std::string path = flags.str("in", "");
  if (path.empty()) throw std::invalid_argument("missing --in=<file>");
  return loadPartition(path);
}

int cmdSearch(const Flags& flags) {
  const int n = static_cast<int>(flags.i64("n", 60));
  const Ratio ratio = Ratio::parse(flags.str("ratio", "5:2:1"));
  Rng rng(static_cast<std::uint64_t>(flags.i64("seed", 1)));
  const Schedule schedule = Schedule::random(rng);
  const DfaResult result =
      runDfa(randomPartition(n, ratio, rng), schedule, {});

  std::cout << "schedule: " << schedule.str() << "\n";
  std::printf("pushes: %lld   VoC %lld -> %lld   stop: %s\n",
              static_cast<long long>(result.pushesApplied),
              static_cast<long long>(result.vocStart),
              static_cast<long long>(result.vocEnd),
              dfaStopName(result.stop));
  std::cout << classifyArchetype(result.final).str() << "\n";
  std::cout << renderAscii(result.final, 40);

  const std::string out = flags.str("out", "");
  if (!out.empty()) {
    savePartition(result.final, out);
    std::cout << "saved to " << out << "\n";
  }
  return 0;
}

int cmdClassify(const Flags& flags) {
  const Partition q = loadInput(flags);
  std::cout << classifyArchetype(q).str() << "\n";
  std::cout << renderAscii(q, 40);
  return 0;
}

int cmdVoc(const Flags& flags) {
  const Partition q = loadInput(flags);
  std::cout << summaryLine(q) << "\n";
  const auto v = pairVolumes(q);
  Table table({"from\\to", "R", "S", "P"});
  for (Proc s : kAllProcs) {
    table.addRow(std::string(1, procName(s)),
                 {static_cast<double>(v[procSlot(s)][procSlot(Proc::R)]),
                  static_cast<double>(v[procSlot(s)][procSlot(Proc::S)]),
                  static_cast<double>(v[procSlot(s)][procSlot(Proc::P)])});
  }
  table.print(std::cout);
  return 0;
}

int cmdRecommend(const Flags& flags) {
  const int n = static_cast<int>(flags.i64("n", 120));
  const Machine machine = machineFromFlags(flags, "10:1:1");
  const Algo algo = parseAlgo(flags, "SCB");
  const Topology topology = flags.str("topology", "full") == "star"
                                ? Topology::kStar
                                : Topology::kFullyConnected;

  const FamilySet families =
      FamilySet::parse(flags.str("families", "canonical"));

  const auto ranked = rankFamilyCandidates(algo, n, machine, families,
                                           topology);
  Table table({"candidate", "family", "VoC", "gap%", "exec (s)"});
  for (const auto& r : ranked) {
    char voc[32], gap[32], exec[32];
    std::snprintf(voc, sizeof(voc), "%lld", static_cast<long long>(r.voc));
    std::snprintf(gap, sizeof(gap), "%.3g", r.gapPct);
    std::snprintf(exec, sizeof(exec), "%g", r.model.execSeconds);
    table.addRow({r.name, familyName(r.family), voc, gap, exec});
  }
  table.print(std::cout);
  if (ranked.empty()) {
    std::cerr << "no feasible candidate\n";
    return 1;
  }
  std::cout << "\nrecommended: " << ranked.front().name << "\n";
  const std::string out = flags.str("out", "");
  if (!out.empty()) {
    // Rebuild the winner's partition from its family (ranking keeps only
    // metadata) and save it like the shape-only path always did.
    std::optional<Partition> winner;
    forEachFamilyCandidate(n, machine.ratio, families,
                           [&](const FamilyCandidate& c) {
                             if (!winner && c.name == ranked.front().name)
                               winner = c.partition;
                           });
    if (!winner) {
      std::cerr << "could not rebuild winner partition\n";
      return 1;
    }
    savePartition(*winner, out);
    std::cout << "saved to " << out << "\n";
  }
  return 0;
}

PlanRequest planRequestFromFlags(const Flags& flags) {
  PlanRequest req;
  req.n = static_cast<int>(flags.i64("n", 1000));
  req.ratio = Ratio::parse(flags.str("ratio", "5:2:1"));
  req.algo = parseAlgo(flags, "SCB");
  req.topology = flags.str("topology", "full") == "star"
                     ? Topology::kStar
                     : Topology::kFullyConnected;
  const std::string hub = flags.str("hub", "P");
  if (hub == "P") req.star.hub = Proc::P;
  else if (hub == "R") req.star.hub = Proc::R;
  else if (hub == "S") req.star.hub = Proc::S;
  else throw std::invalid_argument("unknown --hub=" + hub);
  const std::string tier = flags.str("tier", "fast");
  if (tier == "fast") req.tier = PlanTier::kFast;
  else if (tier == "search") req.tier = PlanTier::kSearch;
  else throw std::invalid_argument("unknown --tier=" + tier +
                                   " (expected fast or search)");
  req.searchRuns = static_cast<int>(flags.i64("runs", 16));
  req.searchSeed = static_cast<std::uint64_t>(flags.i64("seed", 1));
  return req;
}

void printPlanResponse(const PlanResponse& r) {
  std::printf("%s\n", r.key.c_str());
  if (r.shed) {
    std::printf("  SHED (%s) latency=%gus\n", shedReasonName(r.shedReason),
                r.latencySeconds * 1e6);
    return;
  }
  std::printf(
      "  shape=%s exec=%gs voc=%lld gap=%.3g%% tier=%s served=%s %s "
      "latency=%gus\n",
      candidateName(r.answer.shape), r.answer.model.execSeconds,
      static_cast<long long>(r.answer.voc), r.answer.optimalityGapPct,
      planTierName(r.answer.tier), planTierName(r.answer.servedTier),
      r.cacheHit ? "hit" : (r.coalesced ? "coalesced" : "miss"),
      r.latencySeconds * 1e6);
  if (r.answer.family != FamilyId::kCanonical)
    std::printf("  family: %s candidate %s beat every canonical shape\n",
                familyName(r.answer.family),
                r.answer.familyCandidate.c_str());
  if (!r.answer.fullFidelity())
    std::printf("  DEGRADED: %s%s%s\n", degradeReasonName(r.answer.degrade),
                r.answer.truncated ? ", search truncated" : "",
                r.deadlineExceeded ? ", deadline exceeded" : "");
  if (r.answer.atlasServed)
    std::printf("  ATLAS: certified from cell (%d,%d), cert gap %.3g%%%s\n",
                r.answer.atlasI, r.answer.atlasJ, r.answer.atlasCertGapPct,
                r.answer.searchConfirmedCandidate ? ", search-confirmed"
                                                  : "");
  if (r.answer.servedTier == PlanTier::kSearch)
    std::printf("  search: %d/%d walks, best exec %gs voc %lld — %s\n",
                r.answer.searchCompleted, r.answer.searchRuns,
                r.answer.searchBestExecSeconds,
                static_cast<long long>(r.answer.searchBestVoc),
                r.answer.searchConfirmedCandidate
                    ? "candidate ranking confirmed"
                    : "search modeled faster than candidates");
}

void printOracleStats(const OracleStats& s) {
  std::printf(
      "cache: %llu hits, %llu misses, %llu coalesced, %llu evictions, "
      "%llu stale-invalidations, %zu resident\n",
      static_cast<unsigned long long>(s.cache.hits),
      static_cast<unsigned long long>(s.cache.misses),
      static_cast<unsigned long long>(s.cache.coalesced),
      static_cast<unsigned long long>(s.cache.evictions),
      static_cast<unsigned long long>(s.cache.staleInvalidations),
      s.cache.entries);
  const auto line = [](const char* name,
                       const LatencyHistogram::Snapshot& h) {
    if (h.count == 0) return;
    std::printf("%s: n=%llu p50=%gus p95=%gus p99=%gus\n", name,
                static_cast<unsigned long long>(h.count), h.p50 * 1e6,
                h.p95 * 1e6, h.p99 * 1e6);
  };
  std::printf("%s\n", s.sourcesLine().c_str());
  line("hit latency", s.hitLatency);
  line("tier-A solve", s.tierASolves);
  line("tier-B solve", s.tierBSolves);
  line("atlas solve", s.atlasSolves);
  if (s.atlasServed + s.atlasMisses + s.atlasUncertified > 0)
    std::printf(
        "atlas: %llu certified, %llu uncertified, %llu misses "
        "(%llu lookups: %llu hits, %llu out-of-range, %llu unsolved, "
        "%llu boundary; %llu cell inserts)\n",
        static_cast<unsigned long long>(s.atlasServed),
        static_cast<unsigned long long>(s.atlasUncertified),
        static_cast<unsigned long long>(s.atlasMisses),
        static_cast<unsigned long long>(s.atlasCells.lookups),
        static_cast<unsigned long long>(s.atlasCells.hits),
        static_cast<unsigned long long>(s.atlasCells.outOfRange),
        static_cast<unsigned long long>(s.atlasCells.unsolved),
        static_cast<unsigned long long>(s.atlasCells.boundary),
        static_cast<unsigned long long>(s.atlasCells.inserts));
  if (s.shed + s.degraded > 0 || s.breaker.trips > 0)
    std::printf(
        "overload: %llu shed, %llu degraded (%llu truncated, %llu no-time, "
        "%llu breaker-open, %llu late), breaker %s (%llu trips)\n",
        static_cast<unsigned long long>(s.shed),
        static_cast<unsigned long long>(s.degraded),
        static_cast<unsigned long long>(s.truncatedSearch),
        static_cast<unsigned long long>(s.noTimeForSearch),
        static_cast<unsigned long long>(s.breakerOpenServes),
        static_cast<unsigned long long>(s.late),
        breakerStateName(s.breakerState),
        static_cast<unsigned long long>(s.breaker.trips));
}

PlanCallOptions planCallFromFlags(const Flags& flags) {
  PlanCallOptions call;
  const double deadlineMs = flags.f64("deadline-ms", 0.0);
  if (deadlineMs > 0.0) call.deadline = Deadline::after(deadlineMs / 1e3);
  return call;
}

void printAdaptiveStats(const AdaptiveStats& s) {
  std::printf(
      "adaptive: %llu phases (%llu warmup), %llu stale verdicts, "
      "%llu replans, %llu invalidations, %llu hysteresis holds, "
      "%llu interval holds\n",
      static_cast<unsigned long long>(s.phases),
      static_cast<unsigned long long>(s.warmupPhases),
      static_cast<unsigned long long>(s.staleVerdicts),
      static_cast<unsigned long long>(s.replans),
      static_cast<unsigned long long>(s.invalidations),
      static_cast<unsigned long long>(s.hysteresisHolds),
      static_cast<unsigned long long>(s.intervalHolds));
}

/// `plan --adaptive`: plan at --ratio, then feed --phases of synthetic
/// telemetry at --observed-ratio (constant work per phase, busy time
/// inversely proportional to each node's observed speed) and show the
/// session's drift verdicts and replans.
int runAdaptivePlan(Oracle& oracle, const Flags& flags) {
  AdaptiveSessionOptions options;
  options.base = planRequestFromFlags(flags);
  options.staleGapPct = flags.f64("stale-gap-pct", 5.0);
  options.hysteresisPhases = static_cast<int>(flags.i64("hysteresis", 2));
  options.minReplanSeconds = flags.f64("min-replan-s", 0.0);
  FakeClock clock;
  options.clock = &clock;

  AdaptiveSession session(oracle, options);
  printPlanResponse(session.start(planCallFromFlags(flags)));

  const Ratio observed = Ratio::parse(
      flags.str("observed-ratio", flags.str("ratio", "5:2:1")));
  const int phases = static_cast<int>(flags.i64("phases", 6));
  for (int i = 0; i < phases; ++i) {
    clock.advance(1.0);
    PhaseSample sample;
    sample.at = clock.nowSeconds();
    for (Proc x : kAllProcs) {
      NodeSample& node = sample.node(x);
      node.proc = x;
      node.units = 1000000;
      node.busySeconds = 1.0 / observed.speed(x);
    }
    const std::uint64_t replansBefore = session.stats().replans;
    const DriftVerdict v = session.observe(sample, planCallFromFlags(flags));
    std::printf("phase %d: %s (%s, gap %.3g%%)%s\n", i + 1,
                v.stale ? "STALE" : "fresh", driftReasonName(v.reason),
                v.gapPct,
                session.stats().replans > replansBefore ? " -> replanned"
                                                        : "");
  }
  std::printf("final plan:\n");
  printPlanResponse(session.current());
  std::printf("estimated ratio: %s\n",
              session.estimate().canonical().str().c_str());
  printAdaptiveStats(session.stats());
  printOracleStats(oracle.stats());
  return 0;
}

int cmdPlanOracle(const Flags& flags) {
  OracleOptions options;
  options.machine = machineFromFlags(flags, "5:2:1");
  options.admission.maxConcurrency =
      static_cast<int>(flags.i64("max-concurrency", 0));
  options.admission.maxQueue = static_cast<int>(flags.i64("max-queue", 16));
  options.families = FamilySet::parse(flags.str("families", "canonical"));

  const std::string atlasPath = flags.str("atlas", "");
  if (!atlasPath.empty()) {
    // Same survival rule as snapshots: a refused or unreadable atlas means
    // serving without one (every request takes the live path), never abort.
    const AtlasLoadReport report = tryLoadAtlas(atlasPath);
    if (!report.ok()) {
      std::printf("atlas: refused %s (%s); serving without an atlas\n",
                  atlasPath.c_str(), report.error.c_str());
    } else {
      options.atlas = report.atlas;
      options.atlasGapPct = flags.f64("atlas-gap-pct", 5.0);
      options.atlasPrefetch = !flags.b("no-atlas-prefetch", false);
      std::printf("atlas: loaded %zu cells from %s (%zu skipped, "
                  "%zu boundary)\n",
                  report.loaded, atlasPath.c_str(), report.skipped,
                  report.atlas->boundaryCells().size());
    }
  }
  Oracle oracle(options);

  const std::string snapshotPath = flags.str("snapshot", "");
  if (!snapshotPath.empty()) {
    // A missing file is a normal cold start; a corrupt entry costs itself
    // only; a version-refused (future-format) snapshot starts cold too —
    // either way the report says exactly what happened.
    std::ifstream probe(snapshotPath);
    if (probe) {
      probe.close();
      const SnapshotLoadReport report = oracle.tryLoadSnapshot(snapshotPath);
      if (!report.ok())
        std::printf("snapshot: refused %s (%s); starting cold\n",
                    snapshotPath.c_str(), report.error.c_str());
      else
        std::printf("snapshot: restored %zu entries from %s, skipped %zu\n",
                    report.loaded, snapshotPath.c_str(), report.skipped);
    }
  }
  const auto persist = [&]() {
    if (snapshotPath.empty()) return;
    const std::size_t written = oracle.saveSnapshot(snapshotPath);
    std::printf("snapshot: saved %zu entries to %s\n", written,
                snapshotPath.c_str());
  };

  if (flags.b("adaptive", false)) {
    const int rc = runAdaptivePlan(oracle, flags);
    persist();
    return rc;
  }

  if (!flags.b("repl", false)) {
    printPlanResponse(
        oracle.plan(planRequestFromFlags(flags), planCallFromFlags(flags)));
    persist();
    return 0;
  }

  // REPL: one request per stdin line, `key=value` tokens (with or without
  // the leading --), e.g. `n=300 ratio=3:1:1 algo=SCO tier=search runs=8`.
  // Blank lines and #-comments are skipped; a bad line reports its error
  // and the loop carries on. EOF prints the session's serving stats.
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> tokens{"repl"};  // argv[0] slot Flags skips
    std::istringstream split(line);
    for (std::string tok; split >> tok;)
      tokens.push_back(tok.rfind("--", 0) == 0 ? tok : "--" + tok);
    std::vector<const char*> argv;
    argv.reserve(tokens.size());
    for (const auto& t : tokens) argv.push_back(t.c_str());
    try {
      const Flags lineFlags(static_cast<int>(argv.size()), argv.data());
      for (const std::string& name : lineFlags.names()) {
        static const char* kKnown[] = {"n",    "ratio", "algo",
                                       "topology", "hub", "tier",
                                       "runs", "seed",  "deadline-ms"};
        bool known = false;
        for (const char* k : kKnown) known = known || name == k;
        if (!known)
          throw std::invalid_argument("unknown request field '" + name + "'");
      }
      printPlanResponse(oracle.plan(planRequestFromFlags(lineFlags),
                                    planCallFromFlags(lineFlags)));
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }
  printOracleStats(oracle.stats());
  persist();
  return 0;
}

/// One-letter legend for the inspect winner map.
char candidateLetter(CandidateShape s) {
  switch (s) {
    case CandidateShape::kSquareCorner: return 'S';
    case CandidateShape::kRectangleCorner: return 'C';
    case CandidateShape::kSquareRectangle: return 'Q';
    case CandidateShape::kBlockRectangle: return 'B';
    case CandidateShape::kLRectangle: return 'L';
    case CandidateShape::kTraditionalRectangle: return 'T';
  }
  return '?';
}

AtlasLoadReport loadAtlasOrThrow(const Flags& flags) {
  const std::string path = flags.str("file", "");
  if (path.empty()) throw std::invalid_argument("missing --file=<atlas>");
  AtlasLoadReport report = tryLoadAtlas(path);
  if (!report.ok()) throw std::runtime_error(report.error);
  return report;
}

int cmdAtlasBuild(const Flags& flags) {
  const std::string out = flags.str("out", "");
  if (out.empty()) throw std::invalid_argument("missing --out=<file>");

  AtlasBuildOptions options;
  options.spec.prMin = flags.f64("pr-min", 1.0);
  options.spec.prMax = flags.f64("pr-max", 20.0);
  options.spec.prSteps = static_cast<int>(flags.i64("pr-steps", 20));
  options.spec.rrMin = flags.f64("rr-min", 1.0);
  options.spec.rrMax = flags.f64("rr-max", 10.0);
  options.spec.rrSteps = static_cast<int>(flags.i64("rr-steps", 10));
  options.info.n = static_cast<int>(flags.i64("n", 96));
  options.info.algo = parseAlgo(flags, "SCB");
  options.info.machine = machineFromFlags(flags, "2:1:1");
  const int searchRuns = static_cast<int>(flags.i64("search-runs", 0));
  options.info.searchBacked = searchRuns > 0;
  options.info.searchRuns = searchRuns;
  options.info.seed = static_cast<std::uint64_t>(flags.i64("seed", 1));
  options.info.tieSnapPct = flags.f64("tie-pct", 1.0);
  options.threads = static_cast<int>(flags.i64("threads", 0));
  options.onCell = [](std::size_t done, std::size_t total) {
    // Coarse progress: one line per ~10% so a big sweep isn't silent.
    if (total >= 10 && done % (total / 10) == 0)
      std::printf("  solved %zu/%zu cells\n", done, total);
  };

  AtlasBuildReport report;
  const std::shared_ptr<PlanAtlas> atlas = buildAtlas(options, &report);
  const std::size_t written = saveAtlas(*atlas, out);

  std::printf(
      "atlas: %dx%d grid over P_r [%g, %g] x R_r [%g, %g], n=%d, %s%s\n",
      options.spec.prSteps, options.spec.rrSteps, options.spec.prMin,
      options.spec.prMax, options.spec.rrMin, options.spec.rrMax,
      options.info.n, algoName(options.info.algo),
      options.info.searchBacked ? ", search-backed" : "");
  std::printf(
      "build: %zu cells attempted, %zu solved, %zu infeasible, "
      "%zu search-confirmed, %zu boundary, %.3gs\n",
      report.attempted, report.solved, report.failed, report.searchConfirmed,
      report.boundary, report.seconds);
  std::printf("saved %zu cells to %s\n", written, out.c_str());
  return report.solved > 0 ? 0 : 1;
}

int cmdAtlasInspect(const Flags& flags) {
  const AtlasLoadReport report = loadAtlasOrThrow(flags);
  const PlanAtlas& atlas = *report.atlas;
  const AtlasGridSpec& spec = atlas.spec();
  const AtlasBuildInfo& info = atlas.info();

  std::printf(
      "atlas: %dx%d grid over P_r [%g, %g] x R_r [%g, %g], n=%d, %s, %s%s\n",
      spec.prSteps, spec.rrSteps, spec.prMin, spec.prMax, spec.rrMin,
      spec.rrMax, info.n, algoName(info.algo),
      info.topology == Topology::kStar ? "star" : "full",
      info.searchBacked ? ", search-backed" : "");
  std::printf("cells: %zu solved of %zu grid points (%zu skipped on load)\n",
              atlas.solvedCells(), spec.points(), report.skipped);

  // Winner map, P_r down the rows (largest first, like Fig. 13), R_r across.
  // Lowercase marks a boundary cell; '.' = invalid (P_r < R_r); '!' =
  // unsolved (build-failed or corrupted away).
  std::printf("winner map (S=Square-Corner C=Rectangle-Corner "
              "Q=Square-Rectangle B=Block-Rectangle L=L-Rectangle "
              "T=Traditional-Rectangle, lowercase=boundary):\n");
  for (int i = spec.prSteps - 1; i >= 0; --i) {
    std::printf("  P_r=%-8.4g ", spec.prMin + i * spec.prStep());
    for (int j = 0; j < spec.rrSteps; ++j) {
      char mark = '.';
      if (spec.validCell(i, j)) {
        const std::optional<AtlasCell> cell = atlas.cell(i, j);
        if (!cell || !cell->solved) {
          mark = '!';
        } else {
          mark = candidateLetter(cell->shape);
          if (cell->boundary)
            mark = static_cast<char>(std::tolower(mark));
        }
      }
      std::printf("%c", mark);
    }
    std::printf("\n");
  }

  // Lower-bound gap summary over the solved surface (src/bounds): how far
  // the winning shapes sit above the communication lower bound.
  double gapSum = 0.0, gapMax = 0.0;
  std::size_t gapCells = 0;
  for (int i = 0; i < spec.prSteps; ++i)
    for (int j = 0; j < spec.rrSteps; ++j)
      if (const std::optional<AtlasCell> cell = atlas.cell(i, j);
          cell && cell->solved) {
        gapSum += cell->lowerBoundGapPct;
        gapMax = std::max(gapMax, cell->lowerBoundGapPct);
        ++gapCells;
      }
  if (gapCells > 0)
    std::printf("lower-bound gap: mean %.3g%% max %.3g%% over %zu cells\n",
                gapSum / static_cast<double>(gapCells), gapMax, gapCells);

  const std::vector<std::pair<int, int>> edges = atlas.boundaryCells();
  std::printf("boundary cells: %zu of %zu solved\n", edges.size(),
              atlas.solvedCells());
  for (const auto& [i, j] : edges) {
    const AtlasCell cell = *atlas.cell(i, j);
    const Ratio at = spec.ratioAt(i, j);
    std::printf(
        "  boundary cell (%d,%d) ratio=%s winner=%s runner-up gap=%.3g%%\n",
        i, j, at.str().c_str(), candidateName(cell.shape),
        std::min(cell.runnerUpGapPct, 999.0));
  }
  return 0;
}

int cmdAtlasQuery(const Flags& flags) {
  // A standalone lookup + certificate probe: exactly the decision the
  // serving tier makes, printed instead of served, so CI (and humans) can
  // check what a given ratio would get without standing up an oracle.
  const AtlasLoadReport report = loadAtlasOrThrow(flags);
  const PlanAtlas& atlas = *report.atlas;
  const double gapPct = flags.f64("gap-pct", 5.0);

  // The request Oracle::plan would solve: the atlas's algorithm and
  // network at the search tier, canonicalized (R and S ordered, S = 1).
  PlanRequest asked;
  asked.n = static_cast<int>(flags.i64("n", 1000));
  asked.ratio = Ratio::parse(flags.str("ratio", "7:2:1"));
  asked.algo = atlas.info().algo;
  asked.topology = atlas.info().topology;
  asked.tier = PlanTier::kSearch;
  const PlanRequest req = canonicalize(asked).request;
  std::string shown = asked.ratio.str();
  if (req.ratio.str() != shown) shown += " (canonical " + req.ratio.str() + ")";
  std::printf("query: ratio=%s n=%d gap bound=%g%%\n", shown.c_str(), req.n,
              gapPct);

  const AtlasLookup lk = atlas.lookup(req.ratio);
  if (!lk.hit) {
    std::string where;
    if (lk.i >= 0)
      where = " at cell (" + std::to_string(lk.i) + "," +
              std::to_string(lk.j) + ")";
    std::printf("MISS (%s)%s — a serving oracle would fall back to live "
                "search\n",
                atlasMissReasonName(lk.miss), where.c_str());
    return 1;
  }

  Machine machine = atlas.info().machine;
  machine.ratio = req.ratio;
  const RankedCandidate best =
      selectOptimal(req.algo, req.n, machine, req.topology, req.star);
  const AtlasCertificate cert = certifyAtlasHit(
      lk, best, req.algo, req.n, machine, req.topology, req.star);

  std::printf("cell (%d,%d): winner=%s surface VoC/n^2=%.6g (%s)%s\n", lk.i,
              lk.j, candidateName(lk.shape), lk.interpNormVoc,
              lk.bilinear ? "bilinear" : "nearest-cell",
              lk.searchConfirmed ? ", search-confirmed" : "");
  std::printf("exact at request: best=%s, served-shape gap %.3g%%, "
              "surface gap %.3g%%\n",
              candidateName(best.shape), std::min(cert.winnerGapPct, 999.0),
              std::min(cert.surfaceGapPct, 999.0));
  if (cert.certifies(gapPct)) {
    std::printf("CERTIFIED: shape=%s exec=%gs voc=%lld cert gap=%.3g%%\n",
                candidateName(cert.served.shape),
                cert.served.model.execSeconds,
                static_cast<long long>(cert.served.voc), cert.gapPct());
    return 0;
  }
  std::printf("UNCERTIFIED (%s) — a serving oracle would fall back to live "
              "search\n",
              cert.winnerGapPct > gapPct ? "winner-mismatch" : "gap-exceeded");
  return 1;
}

int cmdAtlas(const Flags& flags) {
  const std::vector<std::string>& pos = flags.positional();
  const std::string op = pos.empty() ? "" : pos[0];
  if (op == "build") return cmdAtlasBuild(flags);
  if (op == "inspect") return cmdAtlasInspect(flags);
  if (op == "query") return cmdAtlasQuery(flags);
  std::cerr << "pushpart atlas: expected build, inspect or query\n";
  return usage();
}

int cmdCluster(const Flags& flags) {
  ClusterOptions options;
  options.nodes = static_cast<int>(flags.i64("nodes", 3));
  options.replication = static_cast<int>(flags.i64("replication", 2));
  options.vnodesPerNode = static_cast<int>(flags.i64("vnodes", 32));
  options.oracle.machine = machineFromFlags(flags, "5:2:1");
  options.faults.seed = static_cast<std::uint64_t>(flags.i64("seed", 1));
  options.faults.heartbeatDropProbability = flags.f64("heartbeat-drop", 0.0);

  // One scripted fault per drill, all windows in cluster-clock seconds; the
  // same flags replay the same drill bit-for-bit.
  const int node = static_cast<int>(flags.i64("node", 1));
  const double at = flags.f64("at", 1.0);
  const double until = flags.f64("until", 2.5);
  const double duration = flags.f64("duration", 4.0);
  const std::string drill = flags.str("drill", "kill");
  if (drill == "kill")
    options.faults.kills.push_back(NodeKill{node, at, until});
  else if (drill == "flap")
    options.faults.flaps.push_back(NodeFlap{node, at, until, 0.4, 0.5});
  else if (drill == "partition")
    options.faults.partitions.push_back(
        LinkPartition{kRouterEndpoint, node, at, until});
  else if (drill == "slow")
    options.faults.slowNodes.push_back(SlowNode{node, at, until, 4.0});
  else if (drill != "none")
    throw std::invalid_argument("unknown --drill=" + drill);

  FakeClock clock;
  options.clock = &clock;
  OracleCluster cluster(options);

  // Synthetic workload: `keys` distinct tier-A questions cycled round-robin,
  // spread uniformly over the drill's ticks.
  const std::int64_t totalRequests = flags.i64("requests", 400);
  const std::int64_t keys = flags.i64("keys", 32);
  const int ticks =
      static_cast<int>(duration / options.heartbeatIntervalSeconds);
  std::int64_t issued = 0;
  std::uint64_t answered = 0;
  for (int t = 0; t < ticks; ++t) {
    cluster.tick();
    const std::int64_t due = totalRequests * (t + 1) / ticks;
    for (; issued < due; ++issued) {
      PlanRequest req;
      req.n = 100 + 3 * static_cast<int>(issued % keys);
      req.ratio = options.oracle.machine.ratio;
      const ClusterResponse r = cluster.plan(req);
      if (!r.clusterShed) ++answered;
    }
    clock.advance(options.heartbeatIntervalSeconds);
  }
  cluster.tick();

  std::printf("drill: %s node %d over [%g, %g)s  seed %llu  (%d nodes, "
              "replication %d)\n",
              drill.c_str(), node, at, until,
              static_cast<unsigned long long>(options.faults.seed),
              options.nodes, options.replication);
  for (const ClusterEvent& event : cluster.events())
    std::printf("  t=%.3fs %s\n", event.at, event.what.c_str());

  const ClusterStats s = cluster.stats();
  std::printf(
      "requests: %llu answered %llu (%.2f%%), %llu cluster-shed\n",
      static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(answered),
      s.requests > 0 ? 100.0 * static_cast<double>(answered) /
                           static_cast<double>(s.requests)
                     : 100.0,
      static_cast<unsigned long long>(s.clusterSheds));
  std::printf(
      "routing: %llu primary, %llu replica (%llu replica cache hits), "
      "%llu failed-over attempts\n",
      static_cast<unsigned long long>(s.primaryServes),
      static_cast<unsigned long long>(s.replicaServes),
      static_cast<unsigned long long>(s.replicaHits),
      static_cast<unsigned long long>(s.retries));
  std::printf(
      "replication: %llu replicas written, hints %llu stored / %llu "
      "delivered / %llu dropped\n",
      static_cast<unsigned long long>(s.replicasWritten),
      static_cast<unsigned long long>(s.hintsStored),
      static_cast<unsigned long long>(s.hintsDelivered),
      static_cast<unsigned long long>(s.hintsDropped));
  std::printf(
      "detector: %llu suspicions, %llu confirmations, %llu recoveries; "
      "rebalance: %llu runs, %llu segments, %llu entries\n",
      static_cast<unsigned long long>(s.detector.suspicions),
      static_cast<unsigned long long>(s.detector.confirmations),
      static_cast<unsigned long long>(s.detector.recoveries),
      static_cast<unsigned long long>(s.rebalance.rebalances),
      static_cast<unsigned long long>(s.rebalance.segmentsStreamed),
      static_cast<unsigned long long>(s.rebalance.entriesStreamed));
  if (s.latency.count > 0)
    std::printf("latency: n=%llu p50=%gus p95=%gus p99=%gus\n",
                static_cast<unsigned long long>(s.latency.count),
                s.latency.p50 * 1e6, s.latency.p95 * 1e6,
                s.latency.p99 * 1e6);
  for (int i = 0; i < options.nodes; ++i) {
    const std::size_t slot = static_cast<std::size_t>(i);
    std::printf(
        "node %d: %s/%s, %zu cached, %llu hits, %llu misses, %llu cold "
        "restarts\n",
        i, nodeStatusName(s.statuses[slot]), nodeHealthName(s.health[slot]),
        s.nodes[slot].cache.entries,
        static_cast<unsigned long long>(s.nodes[slot].cache.hits),
        static_cast<unsigned long long>(s.nodes[slot].cache.misses),
        static_cast<unsigned long long>(s.coldRestarts[slot]));
  }
  return 0;
}

int cmdDrift(const Flags& flags) {
  OracleOptions oracleOptions;
  oracleOptions.machine = machineFromFlags(flags, "8:3:1.5");
  const std::string atlasPath = flags.str("atlas", "");
  if (!atlasPath.empty()) {
    const AtlasLoadReport report = tryLoadAtlas(atlasPath);
    if (!report.ok())
      std::printf("atlas: refused %s (%s); running without an atlas\n",
                  atlasPath.c_str(), report.error.c_str());
    else
      oracleOptions.atlas = report.atlas;
  }
  Oracle oracle(oracleOptions);

  DriftScenarioOptions options;
  options.phases = static_cast<int>(flags.i64("phases", 120));
  options.seed = static_cast<std::uint64_t>(flags.i64("seed", 42));
  options.n = static_cast<int>(flags.i64("n", 96));
  options.algo = parseAlgo(flags, "SCB");
  options.wanderStep = flags.f64("wander", 0.05);
  options.regretBound = flags.f64("regret-bound", 1.25);
  options.session.staleGapPct = flags.f64("stale-gap-pct", 5.0);
  options.session.hysteresisPhases =
      static_cast<int>(flags.i64("hysteresis", 2));
  options.session.minReplanSeconds = flags.f64("min-replan-s", 0.0);
  options.session.base.tier = flags.str("tier", "fast") == "search"
                                  ? PlanTier::kSearch
                                  : PlanTier::kFast;

  // One scripted fault, windows in drill-clock seconds (phases are 1 s
  // apart); the same flags replay the same drill bit-for-bit.
  const std::string drill = flags.str("drill", "slow");
  const int node = static_cast<int>(flags.i64("node", 0));
  const double at = flags.f64("at", 30.0);
  const double until = flags.f64("until", 60.0);
  if (drill == "slow")
    options.faults.slowNodes.push_back(
        SlowNode{node, at, until, flags.f64("factor", 2.0)});
  else if (drill == "kill")
    options.faults.kills.push_back(NodeKill{node, at, until});
  else if (drill != "none")
    throw std::invalid_argument("unknown --drill=" + drill);

  const DriftDrillReport report = runDriftDrill(oracle, options);

  std::printf("drift drill: %d phases, seed %llu, wander %g, drill=%s\n",
              options.phases,
              static_cast<unsigned long long>(options.seed),
              options.wanderStep, drill.c_str());
  for (const AdaptiveEvent& event : report.events)
    std::printf("  t=%.3fs %s\n", event.at, event.what.c_str());
  printAdaptiveStats(report.stats);
  std::printf(
      "estimator: %llu phases, %llu clamped, %llu stall demotions, "
      "%llu death demotions, %llu recoveries\n",
      static_cast<unsigned long long>(report.estimator.phases),
      static_cast<unsigned long long>(report.estimator.clampedSamples),
      static_cast<unsigned long long>(report.estimator.stallDemotions),
      static_cast<unsigned long long>(report.estimator.deathDemotions),
      static_cast<unsigned long long>(report.estimator.recoveries));
  printOracleStats(oracle.stats());

  bool ok = true;
  for (const FaultWindowReport& w : report.windows) {
    std::string tail;
    if (w.reconverged)
      tail = " (after " + std::to_string(w.reconvergedAfterPhases) +
             " phases)";
    std::printf(
        "window: %s node %d [%g, %g)s — replan during: %s, reconverged: "
        "%s%s\n",
        w.kill ? "kill" : "slow", w.node, w.begin, w.end,
        w.replanDuring ? "yes" : "NO", w.reconverged ? "yes" : "NO",
        tail.c_str());
    ok = ok && w.replanDuring && w.reconverged;
  }
  std::printf("regret: %.4fx vs omniscient per-phase oracle (bound %.4gx) — "
              "%s\n",
              report.regretFactor(), options.regretBound,
              report.regretOk(options.regretBound) ? "OK" : "EXCEEDED");
  ok = ok && report.regretOk(options.regretBound);
  return ok ? 0 : 1;
}

int cmdCommPlan(const Flags& flags) {
  const Partition q = loadInput(flags);
  const auto plan = buildElementPlan(q);
  if (!verifyElementPlan(q, plan)) {
    std::cerr << "internal error: generated plan failed verification\n";
    return 1;
  }
  const auto v = planVolumes(plan);
  std::int64_t total = 0;
  for (const auto& row : v)
    for (auto x : row) total += x;
  std::printf("pivots: %d   transfers: %lld (== VoC %lld)   verified: yes\n",
              q.n(), static_cast<long long>(total),
              static_cast<long long>(q.volumeOfCommunication()));

  if (flags.has("csv")) {
    CsvWriter csv(flags.str("csv", ""),
                  {"pivot", "kind", "i", "j", "from", "to"});
    for (const auto& step : plan) {
      for (const auto& t : step.aElements())
        csv.row({std::to_string(step.pivot), "A", std::to_string(t.i),
                 std::to_string(t.j), std::string(1, procName(t.from)),
                 std::string(1, procName(t.to))});
      for (const auto& t : step.bElements())
        csv.row({std::to_string(step.pivot), "B", std::to_string(t.i),
                 std::to_string(t.j), std::string(1, procName(t.from)),
                 std::string(1, procName(t.to))});
    }
    if (!csv.close()) return 1;
    std::cout << "plan written to " << flags.str("csv", "") << "\n";
  }
  return 0;
}

int cmdFaults(const Flags& flags) {
  const Partition q = loadInput(flags);
  SimOptions options;
  options.machine = machineFromFlags(flags, "5:2:1");
  options.topology = flags.str("topology", "full") == "star"
                         ? Topology::kStar
                         : Topology::kFullyConnected;
  const Algo algo = parseAlgo(flags, "SCB");

  const SimResult baseline = simulateMMM(algo, q, options);
  std::printf("fault-free baseline: exec %.6gs (comm %.6gs)\n",
              baseline.execSeconds, baseline.commSeconds);

  options.faults.seed = static_cast<std::uint64_t>(flags.i64("seed", 1));
  options.faults.dropProbability = flags.f64("drop", 0.0);
  if (flags.has("death-proc")) {
    const std::string name = flags.str("death-proc", "R");
    ProcDeath death;
    if (name == "R") death.proc = Proc::R;
    else if (name == "S") death.proc = Proc::S;
    else if (name == "P") death.proc = Proc::P;
    else throw std::invalid_argument("unknown --death-proc=" + name);
    death.at = flags.has("death-at")
                   ? flags.f64("death-at", 0.0)
                   : baseline.execSeconds * flags.f64("death-frac", 0.5);
    options.faults.death = death;
  }
  options.retry.timeoutSeconds = flags.f64("timeout", 1e-3);
  options.retry.maxAttempts =
      static_cast<int>(flags.i64("max-attempts", 8));
  options.rebalanceOnDeath = !flags.b("no-rebalance", false);
  if (!options.faults.enabled()) {
    std::cerr << "nothing to inject: pass --drop and/or --death-proc\n";
    return 1;
  }

  const SimResult r = simulateMMM(algo, q, options);
  PUSHPART_LOG(kDebug) << "faulty run: " << r.network.messagesSent
                       << " messages, " << r.network.elementsMoved
                       << " element-hops";
  std::printf("with faults:         exec %.6gs (comm %.6gs)  completed: %s\n",
              r.execSeconds, r.commSeconds, r.completed ? "yes" : "NO");
  std::printf(
      "  drops %lld   retries %lld   abandoned %lld   dead-endpoint %lld\n",
      static_cast<long long>(r.network.dropsInjected),
      static_cast<long long>(r.network.retriesSent),
      static_cast<long long>(r.network.transfersAbandoned),
      static_cast<long long>(r.network.deadEndpointFailures));
  if (r.recovery.processorDied) {
    std::printf(
        "  death: proc %c detected at %.6gs, failover at pivot %d/%d\n",
        procName(r.recovery.deadProc), r.recovery.deathDetectedAt,
        r.recovery.failoverPivot, q.n());
    std::printf(
        "  reassigned %lld cells, refetched %lld panels, plan verified: %s\n",
        static_cast<long long>(r.recovery.reassignedElements),
        static_cast<long long>(r.recovery.refetchedElements),
        r.recovery.failoverPlanVerified ? "yes" : "NO");
    std::printf("  VoC %lld -> %lld   recovery overhead %.6gs\n",
                static_cast<long long>(r.recovery.vocBefore),
                static_cast<long long>(r.recovery.vocAfter),
                r.recovery.recoverySeconds);
  }
  return r.completed ? 0 : 1;
}

int cmdVerify(const Flags& flags) {
  VerifySuiteOptions options;
  options.deep = flags.b("deep", false);
  options.seed = static_cast<std::uint64_t>(flags.i64("seed", 1));
  options.artifactDir = flags.str("artifacts", "verify-artifacts");
  options.corpusDir = flags.str("corpus", "");
  const VerifySuiteReport report = runVerifySuite(options);
  std::cout << report.summary() << "\n";
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Flags flags(argc - 1, argv + 1);
  try {
    setLogLevel(parseLogLevel(flags.str("log-level", "info")));
    if (command == "search") return cmdSearch(flags);
    if (command == "classify") return cmdClassify(flags);
    if (command == "voc") return cmdVoc(flags);
    if (command == "recommend") return cmdRecommend(flags);
    if (command == "plan") return cmdPlanOracle(flags);
    if (command == "atlas") return cmdAtlas(flags);
    if (command == "cluster") return cmdCluster(flags);
    if (command == "drift") return cmdDrift(flags);
    if (command == "commplan") return cmdCommPlan(flags);
    if (command == "faults") return cmdFaults(flags);
    if (command == "verify") return cmdVerify(flags);
    std::cerr << "pushpart: unknown command '" << command << "'\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
