#include "verify/suite.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "atlas/builder.hpp"
#include "bounds/bounds.hpp"
#include "dfa/batch.hpp"
#include "family/family.hpp"
#include "shapes/candidates.hpp"
#include "verify/generators.hpp"

namespace pushpart {
namespace {

/// Best condensed VoC over a seeded DFA batch (the §VII experiment, shrunk
/// to a differential probe). Returns int64 max when the batch is empty.
std::int64_t dfaBestVoc(int n, const Ratio& ratio, int runs,
                        std::uint64_t seed, BatchSummary* summary = nullptr) {
  BatchOptions batch;
  batch.n = n;
  batch.ratio = ratio;
  batch.runs = runs;
  batch.seed = seed;
  batch.threads = 1;  // tiny grids: determinism beats parallelism here
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  const BatchSummary s = runBatch(batch, [&](const BatchRun& run) {
    best = std::min(best, run.result.final.volumeOfCommunication());
  });
  if (summary) *summary = s;
  return best;
}

std::int64_t candidateBestVoc(int n, const Ratio& ratio) {
  const std::optional<CandidateVoc> best = minVocCandidate(n, ratio);
  return best ? best->voc : std::numeric_limits<std::int64_t>::max();
}

PropertyRun pushInvariantProperty(const FailingCase& c) {
  Rng rng(c.seed);
  Partition q = genPartition(static_cast<GenStyle>(c.style), c.n, c.ratio,
                             rng);
  const Schedule schedule = genSchedule(rng);
  // Walk the schedule round-robin like the DFA does, checking the §IV-A
  // guarantees after every attempt; stop at the accept state (a full sweep
  // with no applied push) or after a generous cap.
  for (int sweep = 0; sweep < 64; ++sweep) {
    bool any = false;
    for (const ScheduleSlot& slot : schedule.slots) {
      const Partition before = q;
      const PushOutcome outcome = tryPush(q, slot.active, slot.dir);
      const CheckReport report = checkPushOutcome(before, q, outcome);
      if (!report.ok()) return {report, q};
      any = any || outcome.applied;
    }
    if (!any) break;
  }
  return {CheckReport{}, std::nullopt};
}

PropertyRun dfaCondensationProperty(const FailingCase& c) {
  Rng rng(c.seed);
  const Partition q0 =
      genPartition(static_cast<GenStyle>(c.style), c.n, c.ratio, rng);
  const Schedule schedule = genSchedule(rng);
  const DfaResult result = runDfa(q0, schedule, {});
  CheckReport report = checkDfaRun(q0, result);
  report.merge(checkCondensedState(result.final, c.ratio));
  if (!report.ok()) return {report, result.final};
  return {CheckReport{}, std::nullopt};
}

PropertyRun serializeRoundTripProperty(const FailingCase& c) {
  Rng rng(c.seed);
  const Partition q =
      genPartition(static_cast<GenStyle>(c.style), c.n, c.ratio, rng);
  const CheckReport report = checkSerializeRoundTrip(q);
  if (!report.ok()) return {report, q};
  return {CheckReport{}, std::nullopt};
}

/// The bitboard engine is lockstep-equal to the element-exact grid
/// (DESIGN.md §15): same push outcomes and states after every attempt, same
/// DFA walks. Shrinks like any other property — the evidence is the start
/// partition whose trajectory first diverged.
PropertyRun bitsGridEquivalenceProperty(const FailingCase& c) {
  Rng rng(c.seed);
  const Partition q0 =
      genPartition(static_cast<GenStyle>(c.style), c.n, c.ratio, rng);
  const Schedule schedule = genSchedule(rng);
  CheckReport report = checkBitsPushLockstep(q0, schedule);
  if (report.ok()) report.merge(checkBitsDfaLockstep(q0, schedule));
  if (!report.ok()) return {report, q0};
  return {CheckReport{}, std::nullopt};
}

/// Candidate-family soundness (DESIGN.md §17): every candidate any family
/// emits sits on or above the memory-independent communication lower bound
/// (gap >= 0), the union over all families never loses to the canonical
/// best (the six shapes are canonical members, so at worst it ties), and on
/// grids small enough for the exhaustive oracle the true optimum floors
/// both — candidates from any family are upper bounds, the bound is a
/// lower bound, and the optimum sits between them.
PropertyRun familyBeatsOrTiesCanonicalProperty(
    const FailingCase& c, const SmallNOracleOptions& oracleOptions) {
  const std::int64_t bound = vocLowerBound(c.n, c.ratio);
  constexpr std::int64_t kNoCandidate =
      std::numeric_limits<std::int64_t>::max();
  std::int64_t canonicalBest = kNoCandidate;
  std::int64_t familyBest = kNoCandidate;
  std::optional<Partition> bestPartition;
  CheckReport r;
  forEachFamilyCandidate(
      c.n, c.ratio, FamilySet::all(), [&](const FamilyCandidate& cand) {
        const std::int64_t voc = cand.partition.volumeOfCommunication();
        if (voc < bound)
          r.add("family.lower-bound",
                cand.name + " VoC " + std::to_string(voc) +
                    " undercuts the communication lower bound " +
                    std::to_string(bound));
        if (cand.family == FamilyId::kCanonical)
          canonicalBest = std::min(canonicalBest, voc);
        if (voc < familyBest) {
          familyBest = voc;
          bestPartition = cand.partition;
        }
      });
  if (canonicalBest != kNoCandidate && familyBest > canonicalBest)
    r.add("family.beats-or-ties-canonical",
          "union best VoC " + std::to_string(familyBest) +
              " loses to canonical best " + std::to_string(canonicalBest));
  const SmallNOracleResult oracle =
      smallNOptimalVoc(c.n, c.ratio, oracleOptions);
  if (oracle.tier == SmallNOracleTier::kExhaustive) {
    if (familyBest != kNoCandidate && familyBest < oracle.minVoc)
      r.add("family.exhaustive-floor",
            "family candidate VoC " + std::to_string(familyBest) +
                " undercuts the exhaustive optimum " +
                std::to_string(oracle.minVoc));
    if (bound > oracle.minVoc)
      r.add("bounds.exhaustive-floor",
            "lower bound " + std::to_string(bound) +
                " exceeds the exhaustive optimum " +
                std::to_string(oracle.minVoc));
  }
  if (!r.ok()) return {r, bestPartition};
  return {CheckReport{}, std::nullopt};
}

}  // namespace

bool VerifySuiteReport::ok() const {
  for (const auto& p : properties)
    if (!p.passed) return false;
  for (const auto& d : differentials)
    if (!d.agreed) return false;
  for (const auto& [path, report] : corpus)
    if (!report.ok()) return false;
  return true;
}

std::string VerifySuiteReport::summary() const {
  std::ostringstream os;
  for (const auto& p : properties) os << p.str() << "\n";
  for (const auto& d : differentials) {
    os << "differential n=" << d.n << " ratio=" << d.ratio.str() << " ["
       << smallNOracleTierName(d.tier) << "] oracle=" << d.oracleMinVoc
       << " dfa=" << d.dfaBestVoc << " candidates=" << d.candidateBestVoc
       << (d.agreed ? " — agree" : " — DISAGREE") << "\n";
    if (!d.detail.empty()) os << "  " << d.detail << "\n";
  }
  for (const auto& [path, report] : corpus)
    os << "corpus " << path << ": " << report.str() << "\n";
  os << (ok() ? "VERIFY OK" : "VERIFY FAILED");
  return os.str();
}

VerifySuiteReport runVerifySuite(const VerifySuiteOptions& options) {
  VerifySuiteReport report;
  const int scale = options.deep ? 4 : 1;

  PropertyOptions prop;
  prop.seed = options.seed;
  prop.artifactDir = options.artifactDir;

  prop.iterations = 25 * scale;
  prop.minN = 4;
  prop.maxN = options.deep ? 40 : 24;
  report.properties.push_back(
      runProperty("push-invariants", prop, pushInvariantProperty));
  report.properties.push_back(
      runProperty("serialize-roundtrip", prop, serializeRoundTripProperty));

  prop.iterations = 15 * scale;
  prop.maxN = options.deep ? 32 : 20;
  report.properties.push_back(
      runProperty("dfa-condensation", prop, dfaCondensationProperty));

  // Differential gate for the bitboard engine: every case replays a full
  // push trajectory and a full DFA walk on both engines in lockstep.
  prop.iterations = 20 * scale;
  prop.maxN = options.deep ? 32 : 20;
  report.properties.push_back(
      runProperty("bits-grid-equivalence", prop, bitsGridEquivalenceProperty));

  // Candidate-family soundness on exhaustively checkable grids: bound <=
  // optimum <= union best <= canonical best, for every generated ratio.
  {
    SmallNOracleOptions familyOracle;
    familyOracle.maxExhaustiveStates = options.maxExhaustiveStates;
    prop.iterations = 6 * scale;
    prop.minN = 4;
    prop.maxN = 6;
    report.properties.push_back(runProperty(
        "family-beats-or-ties-canonical", prop,
        [&](const FailingCase& c) -> PropertyRun {
          return familyBeatsOrTiesCanonicalProperty(c, familyOracle);
        }));
  }

  // Serving-layer tier agreement. One oracle serves every case; the request
  // carries the per-case ratio, and shrinking the grid shrinks the request.
  {
    Oracle oracle;
    prop.iterations = 6 * scale;
    prop.maxN = 20;
    report.properties.push_back(runProperty(
        "serve-tier-agreement", prop, [&](const FailingCase& c) -> PropertyRun {
          Rng rng(c.seed);
          PlanRequest req = genPlanRequest(rng);
          req.n = 12 + c.n;  // keep clear of degenerate-n infeasibility
          req.ratio = c.ratio;
          req.searchRuns = 2;
          return {checkOracleTierAgreement(oracle, req), std::nullopt};
        }));
  }

  // Degradation-ladder contract (DESIGN.md §12). The checker drives the
  // deadline rungs itself, so each case gets a fresh oracle with the
  // breaker disabled — deliberate busts would otherwise trip it and change
  // which rung answers — and a private cache (the checker asserts that the
  // unhurried retry re-solves cold).
  {
    prop.iterations = 4 * scale;
    prop.maxN = 20;
    report.properties.push_back(runProperty(
        "serve-degradation", prop, [&](const FailingCase& c) -> PropertyRun {
          OracleOptions degradeOptions;
          degradeOptions.breaker.failureThreshold = 0;
          Oracle oracle(degradeOptions);
          Rng rng(c.seed);
          PlanRequest req = genPlanRequest(rng);
          req.n = 12 + c.n;
          req.ratio = c.ratio;
          req.searchRuns = 2;
          return {checkServeDegradation(oracle, req), std::nullopt};
        }));
  }

  // Atlas-consistency (DESIGN.md §14). One coarse surface serves seeded
  // random ratios inside its span; every atlas-certified answer must carry
  // its certificate and agree with the live tier-B reference
  // (solveUncached) to within the bound. Prefetch is off so the surface the
  // property sees is exactly the one built here.
  {
    AtlasBuildOptions atlasBuild;
    atlasBuild.spec.prMin = 1.0;
    atlasBuild.spec.prMax = 12.0;
    atlasBuild.spec.prSteps = 12;
    atlasBuild.spec.rrMin = 1.0;
    atlasBuild.spec.rrMax = 6.0;
    atlasBuild.spec.rrSteps = 6;
    atlasBuild.info.n = 40;
    atlasBuild.threads = 1;
    OracleOptions atlasOptions;
    atlasOptions.atlas = buildAtlas(atlasBuild);
    atlasOptions.atlasPrefetch = false;
    Oracle oracle(atlasOptions);
    prop.iterations = 6 * scale;
    prop.maxN = 20;
    report.properties.push_back(runProperty(
        "serve-atlas-consistency", prop,
        [&](const FailingCase& c) -> PropertyRun {
          Rng rng(c.seed);
          PlanRequest req;
          req.n = 24 + c.n;
          // A seeded random ratio inside the atlas span (P_r >= R_r by
          // construction); the grid case only contributes n and seed.
          const double pr = 1.0 + 11.0 * rng.real();
          const double rr = 1.0 + (std::min(pr, 6.0) - 1.0) * rng.real();
          req.ratio = Ratio{pr, rr, 1.0};
          req.tier = PlanTier::kSearch;
          req.searchRuns = 2;
          req.searchSeed = c.seed;
          return {checkAtlasConsistency(oracle, req,
                                        atlasOptions.atlasGapPct),
                  std::nullopt};
        }));
  }

  // Small-N differential sweep: exhaustive ground truth vs the DFA batch vs
  // the canonical candidates, across the acceptance ratio set.
  std::vector<Ratio> ratios = {Ratio{2, 1, 1}, Ratio{3, 1, 1}, Ratio{5, 2, 1},
                               Ratio{10, 3, 1}};
  if (options.deep) {
    ratios.push_back(Ratio{4, 1, 1});
    ratios.push_back(Ratio{3, 2, 1});
  }
  std::vector<int> sizes = {4, 5};
  if (options.deep) sizes.push_back(6);
  const int dfaRuns = options.deep ? 384 : 48;

  SmallNOracleOptions oracleOptions;
  oracleOptions.maxExhaustiveStates = options.maxExhaustiveStates;

  for (const Ratio& ratio : ratios) {
    for (int n : sizes) {
      const SmallNOracleResult oracle =
          smallNOptimalVoc(n, ratio, oracleOptions);
      DifferentialOutcome out;
      out.n = n;
      out.ratio = ratio;
      out.tier = oracle.tier;
      out.oracleMinVoc = oracle.minVoc;
      out.dfaBestVoc = dfaBestVoc(n, ratio, dfaRuns, options.seed);
      out.candidateBestVoc = candidateBestVoc(n, ratio);

      if (oracle.tier == SmallNOracleTier::kExhaustive) {
        out.agreed = out.dfaBestVoc == oracle.minVoc;
      } else {
        // Family minima are upper bounds seeded with the candidates, so the
        // only hard relation is candidates >= family min; the DFA value is
        // recorded for the report but free to land on either side.
        out.agreed = out.candidateBestVoc >= oracle.minVoc;
      }

      if (!out.agreed) {
        // Shrink the disagreement like any property failure and dump the
        // oracle's argmin as the replayable artifact.
        FailingCase c;
        c.n = n;
        c.ratio = ratio;
        c.seed = options.seed;
        PropertyOptions diffProp = prop;
        diffProp.minN = 3;
        std::ostringstream name;
        name << "small-n-differential-n" << n << "-" << ratio.str();
        std::string slug = name.str();
        std::replace(slug.begin(), slug.end(), ':', '-');
        const PropertyOutcome failure = runPropertyOnCase(
            slug, c, diffProp, [&](const FailingCase& fc) -> PropertyRun {
              const SmallNOracleResult o =
                  smallNOptimalVoc(fc.n, fc.ratio, oracleOptions);
              const std::int64_t best =
                  dfaBestVoc(fc.n, fc.ratio, dfaRuns, fc.seed);
              CheckReport r;
              if (o.tier == SmallNOracleTier::kExhaustive &&
                  best != o.minVoc)
                r.add("differential.small-n-optimality",
                      "exhaustive minimum VoC " + std::to_string(o.minVoc) +
                          " but DFA best-of-" + std::to_string(dfaRuns) +
                          " reached " + std::to_string(best));
              if (o.tier == SmallNOracleTier::kFamily &&
                  candidateBestVoc(fc.n, fc.ratio) < o.minVoc)
                r.add("differential.family-bound",
                      "a canonical candidate beats the family minimum");
              if (!r.ok()) return {r, o.best};
              return {r, std::nullopt};
            });
        report.properties.push_back(failure);
        out.detail = "disagreement shrunk to " + failure.minimal.str() +
                     (failure.artifactPath.empty()
                          ? ""
                          : "; oracle argmin dumped at " +
                                failure.artifactPath);
      }
      report.differentials.push_back(out);
    }
  }

  if (!options.corpusDir.empty()) {
    for (const std::string& path : corpusFiles(options.corpusDir)) {
      CheckReport fileReport;
      try {
        fileReport = replayCorpusFile(path);
      } catch (const std::exception& e) {
        fileReport.add("corpus.load", e.what());
      }
      report.corpus.emplace_back(path, fileReport);
    }
  }
  return report;
}

}  // namespace pushpart
