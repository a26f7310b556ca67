#include "verify/invariants.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "grid/serialize.hpp"
#include "push/beautify.hpp"
#include "shapes/archetype.hpp"
#include "shapes/transform.hpp"
#include "support/check.hpp"
#include "support/deadline.hpp"

namespace pushpart {

void CheckReport::add(std::string property, std::string detail) {
  violations.push_back({std::move(property), std::move(detail)});
}

void CheckReport::merge(const CheckReport& other) {
  violations.insert(violations.end(), other.violations.begin(),
                    other.violations.end());
}

std::string CheckReport::str() const {
  if (ok()) return "ok";
  std::ostringstream os;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) os << '\n';
    os << violations[i].property << ": " << violations[i].detail;
  }
  return os.str();
}

Ratio inferRatio(const Partition& q) {
  const auto eR = q.count(Proc::R);
  const auto eS = q.count(Proc::S);
  const auto eP = q.count(Proc::P);
  if (eR <= 0 || eS <= 0)
    throw std::invalid_argument(
        "inferRatio: R and S must own at least one cell (R=" +
        std::to_string(eR) + ", S=" + std::to_string(eS) + ")");
  const double s = static_cast<double>(eS);
  Ratio ratio{static_cast<double>(eP) / s, static_cast<double>(eR) / s, 1.0};
  // Integer rounding can leave eP a hair below eR on near-tied shares; clamp
  // so the inferred ratio satisfies the §IV assumption p >= max(r, s).
  ratio.p = std::max({ratio.p, ratio.r, ratio.s});
  return ratio;
}

bool RatioInterval::contains(const Ratio& candidate) const {
  const Ratio c = candidate.normalized();
  return c.p >= lo.p && c.p <= hi.p && c.r >= lo.r && c.r <= hi.r;
}

bool RatioInterval::nearTie() const {
  const bool prOverlap = lo.p <= hi.r && lo.r <= hi.p;
  const bool rsStraddle = lo.r <= 1.0 && 1.0 <= hi.r;
  return prOverlap || rsStraddle;
}

RatioInterval inferRatioInterval(const Partition& q) {
  RatioInterval interval;
  interval.mid = inferRatio(q);  // shares the R/S > 0 precondition check
  const double eR = static_cast<double>(q.count(Proc::R));
  const double eS = static_cast<double>(q.count(Proc::S));
  const double eP = static_cast<double>(q.count(Proc::P));
  // Count quantization (Ratio::elementCounts): R and S are *floored*, so a
  // count of e means the true share lies in [e, e + 1); P absorbs both
  // remainders, so its true share lies in (eP - 2, eP]. A component's
  // extreme is its share's extreme over the opposite extreme of S's share.
  // eS >= 1 (checked by inferRatio above), so the denominators are positive.
  const double tiny = 1e-12;  // an eP of <= 2 would otherwise bound at <= 0
  interval.lo = Ratio{std::max((eP - 2.0) / (eS + 1.0), tiny),
                      std::max(eR / (eS + 1.0), tiny), 1.0};
  interval.hi = Ratio{eP / eS, (eR + 1.0) / eS, 1.0};
  return interval;
}

CheckReport checkCounters(const Partition& q) {
  CheckReport report;
  try {
    q.validateCounters();
  } catch (const CheckError& e) {
    report.add("grid.counters", e.what());
  }
  std::int64_t owned = 0;
  for (Proc x : kAllProcs) owned += q.count(x);
  if (owned != q.cellCount())
    report.add("grid.cell-total",
               "per-processor counts sum to " + std::to_string(owned) +
                   ", expected " + std::to_string(q.cellCount()));
  return report;
}

CheckReport checkConservation(const Partition& before,
                              const Partition& after) {
  CheckReport report;
  if (before.n() != after.n()) {
    report.add("conservation.size",
               "grid size changed " + std::to_string(before.n()) + " -> " +
                   std::to_string(after.n()));
    return report;
  }
  for (Proc x : kAllProcs) {
    if (before.count(x) != after.count(x))
      report.add("conservation.counts",
                 std::string(1, procName(x)) + " count changed " +
                     std::to_string(before.count(x)) + " -> " +
                     std::to_string(after.count(x)));
  }
  return report;
}

CheckReport checkPushOutcome(const Partition& before, const Partition& after,
                             const PushOutcome& outcome) {
  CheckReport report;
  report.merge(checkConservation(before, after));

  const std::int64_t vocBefore = before.volumeOfCommunication();
  const std::int64_t vocAfter = after.volumeOfCommunication();
  if (outcome.vocBefore != vocBefore)
    report.add("push.bookkeeping",
               "outcome.vocBefore " + std::to_string(outcome.vocBefore) +
                   " != measured " + std::to_string(vocBefore));
  if (outcome.applied && outcome.vocAfter != vocAfter)
    report.add("push.bookkeeping",
               "outcome.vocAfter " + std::to_string(outcome.vocAfter) +
                   " != measured " + std::to_string(vocAfter));

  if (!outcome.applied) {
    if (!(before == after))
      report.add("push.no-mutation-on-failure",
                 "partition changed although outcome.applied is false");
    return report;
  }

  // §IV-A: Types 1–4 strictly decrease VoC; 5–6 may keep it equal.
  const bool strict = static_cast<int>(outcome.type) <= 4;
  if (strict ? !(vocAfter < vocBefore) : !(vocAfter <= vocBefore))
    report.add("push.voc-nonincrease",
               std::string(pushTypeName(outcome.type)) + " push moved VoC " +
                   std::to_string(vocBefore) + " -> " +
                   std::to_string(vocAfter));

  // No slow processor's enclosing rectangle may grow (P is exempt — the
  // engine's rule; its rectangle plays no role in VoC or future pushes).
  for (Proc x : kSlowProcs) {
    if (!before.enclosingRect(x).contains(after.enclosingRect(x))) {
      std::ostringstream os;
      os << procName(x) << " rect grew " << before.enclosingRect(x) << " -> "
         << after.enclosingRect(x);
      report.add("push.rect-nongrowth", os.str());
    }
  }
  report.merge(checkCounters(after));
  return report;
}

CheckReport checkDfaRun(const Partition& q0, const DfaResult& result) {
  CheckReport report;
  report.merge(checkConservation(q0, result.final));
  report.merge(checkCounters(result.final));

  if (result.vocStart != q0.volumeOfCommunication())
    report.add("dfa.bookkeeping",
               "vocStart " + std::to_string(result.vocStart) +
                   " != start grid's " +
                   std::to_string(q0.volumeOfCommunication()));
  if (result.vocEnd != result.final.volumeOfCommunication())
    report.add("dfa.bookkeeping",
               "vocEnd " + std::to_string(result.vocEnd) +
                   " != final grid's " +
                   std::to_string(result.final.volumeOfCommunication()));
  if (result.vocEnd > result.vocStart)
    report.add("dfa.voc-monotone", "VoC rose " +
                                       std::to_string(result.vocStart) +
                                       " -> " + std::to_string(result.vocEnd));
  return report;
}

CheckReport checkSerializeRoundTrip(const Partition& q) {
  CheckReport report;
  std::ostringstream first;
  savePartition(q, first);
  std::istringstream in(first.str());
  try {
    const Partition back = loadPartition(in);
    if (!(back == q)) {
      report.add("serialize.roundtrip", "loaded grid differs from original");
      return report;
    }
    std::ostringstream second;
    savePartition(back, second);
    if (second.str() != first.str())
      report.add("serialize.roundtrip",
                 "save -> load -> save is not byte-identical");
  } catch (const std::exception& e) {
    report.add("serialize.roundtrip",
               std::string("loadPartition rejected its own output: ") +
                   e.what());
  }
  return report;
}

CheckReport checkCondensedState(const Partition& condensed,
                                const Ratio& ratio) {
  CheckReport report;
  const ArchetypeInfo info = classifyArchetype(condensed);
  if (info.archetype != Archetype::Unknown) return report;

  // A locked non-archetype state is tolerable (the paper saw none, we keep
  // them as corpus regressions) *only* while a canonical Archetype A
  // candidate still communicates no more — the weak Postulate 1 its
  // conclusions rest on.
  Partition reduced = condensed;
  const auto reduction = reduceToArchetypeA(reduced, ratio);
  if (!reduction.has_value()) {
    report.add("postulate1.dominance",
               "locked Unknown state undercuts every canonical candidate "
               "(VoC " +
                   std::to_string(condensed.volumeOfCommunication()) +
                   ", ratio " + ratio.str() + ") — " + info.str());
    return report;
  }
  if (classifyArchetype(reduced).archetype != Archetype::A)
    report.add("postulate1.reduction",
               "reduceToArchetypeA output is not Archetype A");
  if (reduction->vocAfter > reduction->vocBefore)
    report.add("postulate1.reduction",
               "reduction raised VoC " + std::to_string(reduction->vocBefore) +
                   " -> " + std::to_string(reduction->vocAfter));
  return report;
}

CheckReport checkOracleTierAgreement(const Oracle& oracle,
                                     const PlanRequest& request) {
  CheckReport report;
  PlanRequest fast = request;
  fast.tier = PlanTier::kFast;
  PlanRequest search = request;
  search.tier = PlanTier::kSearch;

  const PlanAnswer a = oracle.solveUncached(fast);
  const PlanAnswer b = oracle.solveUncached(search);

  // Tier B embeds tier A: its candidate recommendation must be the tier-A
  // answer verbatim — the search only *cross-checks*, it never changes the
  // closed-form ranking.
  if (a.shape != b.shape)
    report.add("serve.tier-agreement",
               std::string("tier A recommends ") + candidateName(a.shape) +
                   " but tier B recommends " + candidateName(b.shape));
  if (a.voc != b.voc)
    report.add("serve.tier-agreement",
               "candidate VoC differs across tiers: " + std::to_string(a.voc) +
                   " vs " + std::to_string(b.voc));
  if (!(a.model == b.model))
    report.add("serve.tier-agreement",
               "candidate model timings differ across tiers");

  if (b.searchCompleted > b.searchRuns)
    report.add("serve.search-budget",
               "completed " + std::to_string(b.searchCompleted) + " of " +
                   std::to_string(b.searchRuns) + " budgeted walks");
  const bool shouldConfirm =
      b.searchCompleted > 0 &&
      b.searchBestExecSeconds >= b.model.execSeconds;
  if (b.searchConfirmedCandidate != shouldConfirm)
    report.add("serve.search-confirmation",
               "searchConfirmedCandidate=" +
                   std::string(b.searchConfirmedCandidate ? "true" : "false") +
                   " but best searched exec " +
                   std::to_string(b.searchBestExecSeconds) +
                   "s vs candidate " + std::to_string(b.model.execSeconds) +
                   "s");
  return report;
}

CheckReport checkServeDegradation(Oracle& oracle, const PlanRequest& request) {
  CheckReport report;
  PlanRequest search = request;
  search.tier = PlanTier::kSearch;
  PlanRequest fast = request;
  fast.tier = PlanTier::kFast;

  // The unhurried closed-form answer every degraded rung must still carry.
  const PlanAnswer reference = oracle.solveUncached(fast);

  // Drive the "no time for search" rung with an already-spent deadline.
  FakeClock clock;
  PlanCallOptions spent;
  spent.deadline = Deadline::after(0.0, clock);
  const PlanResponse hurried = oracle.plan(search, spent);
  if (hurried.shed) {
    report.add("serve.degradation",
               "request shed although admission control is disabled");
    return report;
  }
  const PlanAnswer& d = hurried.answer;
  if (d.fullFidelity())
    report.add("serve.degradation",
               "expired deadline produced an unmarked full-fidelity answer");
  if (static_cast<int>(d.servedTier) > static_cast<int>(d.tier))
    report.add("serve.degradation",
               std::string("served tier ") + planTierName(d.servedTier) +
                   " exceeds requested tier " + planTierName(d.tier));
  // A degraded answer is still a valid recommendation: the closed-form
  // candidate, not a torn or empty placeholder.
  if (d.shape != reference.shape)
    report.add("serve.degradation",
               std::string("degraded answer recommends ") +
                   candidateName(d.shape) + " but the closed form picks " +
                   candidateName(reference.shape));
  if (d.voc != reference.voc)
    report.add("serve.degradation",
               "degraded answer VoC " + std::to_string(d.voc) +
                   " differs from closed-form VoC " +
                   std::to_string(reference.voc));
  if (!(d.model == reference.model))
    report.add("serve.degradation",
               "degraded answer's model timings differ from the closed form");
  if (d.truncated && d.searchCompleted >= d.searchRuns)
    report.add("serve.degradation",
               "truncated answer claims a complete search (" +
                   std::to_string(d.searchCompleted) + "/" +
                   std::to_string(d.searchRuns) + " walks)");

  // Degraded answers are never cached: the unhurried retry re-solves at
  // full fidelity instead of inheriting the hurried rung's answer.
  const PlanResponse retry = oracle.plan(search);
  if (retry.cacheHit)
    report.add("serve.degradation",
               "degraded answer was cached and served to an unhurried caller");
  if (!retry.answer.fullFidelity())
    report.add("serve.degradation",
               "unhurried retry is still degraded (" +
                   std::string(degradeReasonName(retry.answer.degrade)) + ")");
  if (retry.answer.servedTier != PlanTier::kSearch)
    report.add("serve.degradation",
               std::string("unhurried tier-B retry served tier ") +
                   planTierName(retry.answer.servedTier));
  return report;
}

CheckReport checkAtlasConsistency(Oracle& oracle, const PlanRequest& request,
                                  double gapPct) {
  CheckReport report;
  const PlanResponse r = oracle.plan(request);
  if (r.shed || !r.answer.atlasServed)
    return report;  // live/shed path: nothing the atlas must answer for
  const PlanAnswer& a = r.answer;
  if (a.atlasI < 0 || a.atlasJ < 0)
    report.add("serve.atlas-consistency",
               "atlas-served answer carries no cell coordinates");
  if (a.atlasCertGapPct > gapPct)
    report.add("serve.atlas-consistency",
               "certificate gap " + std::to_string(a.atlasCertGapPct) +
                   "% exceeds the configured bound " + std::to_string(gapPct) +
                   "%");
  if (!a.fullFidelity())
    report.add("serve.atlas-consistency",
               "atlas-served answer is marked degraded (" +
                   std::string(degradeReasonName(a.degrade)) +
                   ") — provenance must not cost fidelity");
  // The live reference: same request, no cache, no breaker, no atlas.
  const PlanAnswer live = oracle.solveUncached(request);
  if (live.model.execSeconds > 0.0) {
    const double diffPct =
        std::abs(a.model.execSeconds - live.model.execSeconds) /
        live.model.execSeconds * 100.0;
    // Slack over the certificate bound: the certificate is checked against
    // the closed-form best, while the live answer may differ by the model's
    // integer-granularity rounding.
    if (diffPct > gapPct + 0.5)
      report.add("serve.atlas-consistency",
                 "atlas-served modeled time " +
                     std::to_string(a.model.execSeconds) + "s is " +
                     std::to_string(diffPct) + "% from the live reference " +
                     std::to_string(live.model.execSeconds) + "s");
  }
  return report;
}

CheckReport checkBitsGridAgreement(const Partition& q, const BitPartition& b) {
  CheckReport report;
  if (q.n() != b.n()) {
    report.add("bits.agreement", "sizes differ: grid " + std::to_string(q.n()) +
                                     " vs bits " + std::to_string(b.n()));
    return report;
  }
  try {
    b.validateCounters();
  } catch (const CheckError& e) {
    report.add("bits.counters", e.what());
  }
  // The bitboard's counters, rectangles and hash are its grid's own, so
  // equal cells (plus the recount above) mean every observable agrees.
  // Report the first divergent cell for the shrinker.
  if (!(b.grid() == q)) {
    for (int i = 0; i < q.n(); ++i)
      for (int j = 0; j < q.n(); ++j)
        if (q.at(i, j) != b.at(i, j)) {
          report.add("bits.agreement",
                     "owners diverge first at (" + std::to_string(i) + "," +
                         std::to_string(j) + "): grid " +
                         std::string(1, procName(q.at(i, j))) + " vs bits " +
                         std::string(1, procName(b.at(i, j))));
          return report;
        }
  }
  return report;
}

namespace {

// Compares one attempt's outcome on both engines; returns false (and
// records) on the first divergence so lockstep loops can stop with the
// smallest trajectory prefix as evidence.
bool outcomesAgree(const PushOutcome& g, const PushOutcome& b,
                   const std::string& where, CheckReport& report) {
  std::ostringstream os;
  if (g.applied != b.applied)
    os << "applied " << g.applied << " vs " << b.applied;
  else if (g.applied && g.type != b.type)
    os << "type " << pushTypeName(g.type) << " vs " << pushTypeName(b.type);
  else if (g.vocBefore != b.vocBefore || g.vocAfter != b.vocAfter)
    os << "voc " << g.vocBefore << "->" << g.vocAfter << " vs " << b.vocBefore
       << "->" << b.vocAfter;
  else if (g.elementsMoved != b.elementsMoved)
    os << "elementsMoved " << g.elementsMoved << " vs " << b.elementsMoved;
  else
    return true;
  report.add("bits.push-lockstep", where + ": grid/bits outcomes differ (" +
                                       os.str() + ")");
  return false;
}

}  // namespace

CheckReport checkBitsPushLockstep(const Partition& q0, const Schedule& schedule,
                                  int maxSweeps) {
  CheckReport report;
  Partition grid = q0;
  BitPartition bits(q0);
  report.merge(checkBitsGridAgreement(grid, bits));
  if (!report.ok()) return report;

  int attempt = 0;
  for (int sweep = 0; sweep < maxSweeps; ++sweep) {
    bool any = false;
    for (const ScheduleSlot& slot : schedule.slots) {
      const std::string where = "sweep " + std::to_string(sweep) + " slot " +
                                std::string(1, procName(slot.active)) + ":" +
                                directionName(slot.dir) + " (attempt " +
                                std::to_string(attempt++) + ")";
      const PushOutcome g = tryPush(grid, slot.active, slot.dir);
      const PushOutcome b = tryPush(bits, slot.active, slot.dir);
      if (!outcomesAgree(g, b, where, report)) return report;
      any = any || g.applied;
      CheckReport state = checkBitsGridAgreement(grid, bits);
      if (!state.ok()) {
        report.add("bits.push-lockstep", where + ": states diverged");
        report.merge(state);
        return report;
      }
      // Availability is part of the decision surface too: a disagreement
      // here means the DFA would stop at different times on the two engines.
      for (Proc x : kSlowProcs) {
        const std::array<Direction, 1> one{slot.dir};
        if (pushAvailable(grid, x, one) != pushAvailable(bits, x, one)) {
          report.add("bits.push-lockstep",
                     where + ": pushAvailable verdicts differ for " +
                         std::string(1, procName(x)));
          return report;
        }
      }
    }
    if (!any) break;  // common accept state reached
  }
  return report;
}

CheckReport checkBitsDfaLockstep(const Partition& q0, const Schedule& schedule,
                                 const DfaOptions& options) {
  CheckReport report;
  const DfaResult g = runDfa(q0, schedule, options);
  DfaResultT<BitPartition> b = runDfaT(BitPartition(q0), schedule, options);

  if (g.stop != b.stop)
    report.add("bits.dfa-lockstep", std::string("stop reason: grid ") +
                                        dfaStopName(g.stop) + " vs bits " +
                                        dfaStopName(b.stop));
  if (g.pushesApplied != b.pushesApplied || g.sweeps != b.sweeps)
    report.add("bits.dfa-lockstep",
               "walk length: grid " + std::to_string(g.pushesApplied) +
                   " pushes/" + std::to_string(g.sweeps) + " sweeps vs bits " +
                   std::to_string(b.pushesApplied) + "/" +
                   std::to_string(b.sweeps));
  if (g.vocStart != b.vocStart || g.vocEnd != b.vocEnd)
    report.add("bits.dfa-lockstep",
               "VoC bookkeeping: grid " + std::to_string(g.vocStart) + "->" +
                   std::to_string(g.vocEnd) + " vs bits " +
                   std::to_string(b.vocStart) + "->" +
                   std::to_string(b.vocEnd));
  if (g.beautify.pushesApplied != b.beautify.pushesApplied ||
      g.beautify.vocBefore != b.beautify.vocBefore ||
      g.beautify.vocAfter != b.beautify.vocAfter)
    report.add("bits.dfa-lockstep", "beautify summaries differ");
  CheckReport finals = checkBitsGridAgreement(g.final, b.final);
  if (!finals.ok()) {
    report.add("bits.dfa-lockstep", "final states diverged");
    report.merge(finals);
  }
  return report;
}

CheckReport replayCorpusFile(const std::string& path) {
  CheckReport report;
  Partition q = loadPartition(path);
  report.merge(checkCounters(q));
  report.merge(checkSerializeRoundTrip(q));
  try {
    report.merge(checkCondensedState(q, inferRatio(q)));
  } catch (const std::invalid_argument& e) {
    report.add("corpus.ratio", e.what());
  }

  // Bitboard engine parity on the same counterexample: identical state
  // observables and identical push-availability verdicts — a corpus file
  // that locked the grid must lock the bitboard too.
  const BitPartition b(q);
  report.merge(checkBitsGridAgreement(q, b));
  if (fullyCondensed(q) != fullyCondensed(b))
    report.add("bits.corpus", "fullyCondensed verdicts differ on " + path);
  for (Proc x : kSlowProcs)
    for (Direction d : kAllDirections) {
      const std::array<Direction, 1> one{d};
      if (pushAvailable(q, x, one) != pushAvailable(b, x, one))
        report.add("bits.corpus",
                   std::string("pushAvailable(") + procName(x) + ", " +
                       directionName(d) + ") verdicts differ on " + path);
    }
  return report;
}

std::vector<std::string> corpusFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".pp")
      files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace pushpart
