#include "serve/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "bounds/bounds.hpp"
#include "dfa/batch.hpp"
#include "family/rank.hpp"
#include "model/optimal.hpp"
#include "support/stopwatch.hpp"

namespace pushpart {

Oracle::Oracle(OracleOptions options)
    : options_(std::move(options)),
      cache_(options_.cacheCapacity, options_.cacheShards),
      admission_(options_.admission),
      breaker_(options_.breaker) {
  if (options_.atlas && options_.atlasPrefetch)
    prefetcher_ = std::make_unique<AtlasPrefetcher>(options_.atlas);
}

std::string OracleStats::sourcesLine() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "sources: atlas=%llu cache=%llu tier-A=%llu tier-B=%llu "
                "shed=%llu",
                static_cast<unsigned long long>(sourceAtlas),
                static_cast<unsigned long long>(sourceCache),
                static_cast<unsigned long long>(sourceTierA),
                static_cast<unsigned long long>(sourceTierB),
                static_cast<unsigned long long>(shed));
  return buf;
}

PlanAnswer Oracle::solveCanonical(const CanonicalKey& key,
                                  const CancelToken& cancel,
                                  bool consultBreaker,
                                  bool consultAtlas) const {
  const PlanRequest& req = key.request;
  Machine machine = options_.machine;
  machine.ratio = req.ratio;

  Stopwatch timer;
  const RankedCandidate best =
      selectOptimal(req.algo, req.n, machine, req.topology, req.star);

  PlanAnswer answer;
  answer.shape = best.shape;
  answer.model = best.model;
  answer.voc = best.voc;
  answer.tier = req.tier;
  answer.servedTier = PlanTier::kFast;
  // Lower-bound evidence rides every answer: the bound depends only on
  // (n, ratio), so one computation covers whichever candidate is served.
  const std::int64_t vocBound = vocLowerBound(req.n, req.ratio);
  answer.optimalityGapPct = pushpart::optimalityGapPct(best.voc, vocBound);
  answer.familyCandidate = candidateName(best.shape);

  // Extended families: rank layered/hierarchical members alongside the six
  // shapes and adopt a family winner only when it *strictly* beats the
  // canonical best — ties keep the paper's shape (and its closed-form
  // pedigree). shape stays the canonical best either way.
  if (options_.families.extended()) {
    if (std::optional<FamilyRanked> fam =
            bestFamilyCandidate(req.algo, req.n, machine, options_.families,
                                req.topology, req.star)) {
      if (fam->model.execSeconds < answer.model.execSeconds) {
        answer.family = fam->family;
        answer.familyCandidate = fam->name;
        answer.model = fam->model;
        answer.voc = fam->voc;
        answer.optimalityGapPct = pushpart::optimalityGapPct(fam->voc, vocBound);
      }
    }
  }

  // The atlas tier: between tier A (we already hold the exact closed-form
  // winner) and tier B (the expensive batch this lookup exists to skip).
  // Only search-tier requests consult it — for tier A the ranking above IS
  // the full answer. Extended-family serving skips it: the surface knows
  // only canonical shapes.
  if (req.tier == PlanTier::kSearch && consultAtlas && options_.atlas &&
      !options_.families.extended()) {
    const AtlasLookup lk = options_.atlas->lookup(req.ratio);
    if (!lk.hit) {
      stats_.atlasMisses.add();
      // An unsolved cell is the one miss prefetch can cure: speculatively
      // build its neighborhood so the next request in this region hits.
      if (lk.miss == AtlasMissReason::kUnsolved && prefetcher_)
        prefetcher_->enqueueNeighborhood(lk.i, lk.j);
    } else {
      // Certificate: (a) the cell's winner, re-costed at the *exact*
      // requested (n, ratio), must model within the bound of the exact best
      // (zero when the shapes agree — the common interior-cell case);
      // (b) the interpolated surface value must agree with the winner's
      // exact normalized VoC, bounding how far the request sits from the
      // solved grid. Either failing means this ratio is not where the
      // surface says it is — fall back to the live search.
      bool certified = false;
      RankedCandidate served = best;
      double winnerGapPct = 0.0;
      if (lk.shape != best.shape) {
        if (std::optional<RankedCandidate> rc = rankOne(
                lk.shape, req.algo, req.n, machine, req.topology, req.star)) {
          served = *rc;
          winnerGapPct = (rc->model.execSeconds - best.model.execSeconds) /
                         best.model.execSeconds * 100.0;
        } else {
          winnerGapPct = AtlasCell::kMaxGapPct;  // Infeasible here: reject.
        }
      }
      if (winnerGapPct <= options_.atlasGapPct) {
        const double exactNorm =
            static_cast<double>(served.voc) /
            (static_cast<double>(req.n) * static_cast<double>(req.n));
        const double surfaceGapPct =
            exactNorm > 0.0
                ? std::fabs(lk.interpNormVoc - exactNorm) / exactNorm * 100.0
                : (lk.interpNormVoc > 0.0 ? AtlasCell::kMaxGapPct : 0.0);
        if (surfaceGapPct <= options_.atlasGapPct) {
          certified = true;
          answer.shape = served.shape;
          answer.model = served.model;
          answer.voc = served.voc;
          answer.familyCandidate = candidateName(served.shape);
          answer.optimalityGapPct =
              pushpart::optimalityGapPct(served.voc, vocBound);
          answer.atlasServed = true;
          answer.atlasCertGapPct = std::max(winnerGapPct, surfaceGapPct);
          answer.atlasI = lk.i;
          answer.atlasJ = lk.j;
          answer.searchConfirmedCandidate = lk.searchConfirmed;
        }
      }
      if (certified) {
        stats_.atlasServed.add();
        answer.solveSeconds = timer.seconds();
        return answer;
      }
      stats_.atlasUncertified.add();
    }
  }

  if (req.tier == PlanTier::kSearch) {
    if (consultBreaker && !breaker_.allowRequest()) {
      // Ladder rung 3: the breaker is open, serve the closed-form ranking
      // without attempting (or accounting) a search. No recordSuccess /
      // recordFailure here — the protocol only applies after a true
      // allowRequest().
      answer.degrade = DegradeReason::kBreakerOpen;
    } else if (cancel.cancelled()) {
      // The budget is gone before the batch could start: same rung, reached
      // via the deadline. This still counts against the breaker — a run of
      // these means tier B is hopeless at the current load.
      answer.degrade = DegradeReason::kNoTimeForSearch;
      if (consultBreaker) breaker_.recordFailure();
    } else {
      BatchOptions batch;
      batch.n = req.n;
      batch.ratio = req.ratio;
      batch.runs = req.searchRuns;
      batch.threads = options_.searchThreads;
      batch.seed = req.searchSeed;
      batch.cancel = cancel;
      batch.engine = options_.searchEngine;
      batch.dfa.cancelCheckEvery = options_.cancelCheckEvery;

      double bestExec = 0.0;
      std::int64_t bestVoc = 0;
      bool any = false;
      int delivered = 0;
      const BatchSummary summary = runBatch(batch, [&](const BatchRun& run) {
        ++delivered;
        if (options_.onSearchRun) options_.onSearchRun(key, delivered);
        // A cancelled walk's partition is intact (pushes are transactional)
        // but it never reached an accept state; it is not search evidence.
        if (run.result.stop == DfaStop::kCancelled) return;
        const ModelResult m = evalModel(req.algo, run.result.final, machine,
                                        req.topology, req.star);
        if (!any || m.execSeconds < bestExec) {
          any = true;
          bestExec = m.execSeconds;
          bestVoc = run.result.final.volumeOfCommunication();
        }
        ++answer.searchCompleted;
      });
      answer.servedTier = PlanTier::kSearch;
      answer.searchRuns = req.searchRuns;
      answer.searchBestVoc = bestVoc;
      answer.searchBestExecSeconds = bestExec;
      // The search "confirms" the closed-form ranking when no condensed walk
      // modeled faster than the recommended candidate (the paper's §VII
      // outcome). An empty batch confirms nothing.
      answer.searchConfirmedCandidate =
          any && bestExec >= answer.model.execSeconds;
      if (summary.truncated()) {
        // Ladder rung 2: the deadline cancelled the batch mid-flight;
        // completed walks remain best-so-far evidence.
        answer.truncated = true;
        answer.degrade = DegradeReason::kTruncatedSearch;
      }
      if (consultBreaker) {
        if (summary.truncated() || cancel.cancelled())
          breaker_.recordFailure();
        else
          breaker_.recordSuccess();
      }
    }
  }

  answer.solveSeconds = timer.seconds();
  return answer;
}

PlanResponse Oracle::finishResponse(std::string keyText, PlanAnswer answer,
                                    bool hit, bool coalesced,
                                    const PlanCallOptions& call,
                                    double latencySeconds,
                                    bool freshFallback) {
  // Per-source breakdown (the stats "sources:" line). Exactly one source
  // per response; shed is counted at its own site in plan(), so atlas
  // serves can never hide shed traffic.
  if ((hit || coalesced) && !freshFallback)
    stats_.sourceCache.add();
  else if (answer.atlasServed)
    stats_.sourceAtlas.add();
  else if (answer.servedTier == PlanTier::kSearch)
    stats_.sourceTierB.add();
  else
    stats_.sourceTierA.add();
  PlanResponse response;
  response.cacheHit = hit;
  response.coalesced = coalesced;
  response.latencySeconds = latencySeconds;
  response.key = std::move(keyText);
  if (call.deadline.expired()) {
    response.deadlineExceeded = true;
    // The caller must never see a post-deadline answer without a mark. The
    // mark goes on this response's copy only — the cached answer (if any)
    // stays pristine for on-time callers.
    if (answer.fullFidelity()) answer.degrade = DegradeReason::kLate;
  }
  switch (answer.degrade) {
    case DegradeReason::kNone:
      break;
    case DegradeReason::kTruncatedSearch:
      stats_.truncatedSearch.add();
      break;
    case DegradeReason::kNoTimeForSearch:
      stats_.noTimeForSearch.add();
      break;
    case DegradeReason::kBreakerOpen:
      stats_.breakerOpenServes.add();
      break;
    case DegradeReason::kLate:
      stats_.late.add();
      break;
  }
  if (!answer.fullFidelity()) stats_.degraded.add();
  response.answer = std::move(answer);
  if (hit) hitLatency_.record(latencySeconds);
  return response;
}

PlanResponse Oracle::plan(const PlanRequest& req,
                          const PlanCallOptions& call) {
  Stopwatch timer;
  CanonicalKey key = canonicalize(req);

  // Cache hits are served unconditionally: they cost microseconds and are
  // exactly what admission control is trying to protect. Each return below
  // hands the key text on to its response; nothing reads the key after.
  if (std::optional<PlanAnswer> cached = cache_.tryGet(key))
    return finishResponse(std::move(key.text), *std::move(cached),
                          /*hit=*/true, /*coalesced=*/false, call,
                          timer.seconds());

  AdmissionController::Permit permit(admission_, call.deadline);
  if (!permit.admitted()) {
    // Ladder rung 4: load-shed. No answer; the caller retries or gives up.
    stats_.shed.add();
    PlanResponse response;
    response.shed = true;
    response.shedReason = permit.outcome() == AdmissionOutcome::kQueueFull
                              ? ShedReason::kQueueFull
                              : ShedReason::kAdmissionTimeout;
    response.deadlineExceeded = call.deadline.expired();
    response.latencySeconds = timer.seconds();
    response.key = std::move(key.text);
    return response;
  }

  const CancelToken solveCancel = call.cancel.withDeadline(call.deadline);
  const PlanCache::Outcome outcome = cache_.getOrCompute(
      key,
      [this, &key, &solveCancel]() {
        if (options_.onSolveStart) options_.onSolveStart(key);
        PlanAnswer answer = solveCanonical(key, solveCancel,
                                           /*consultBreaker=*/true,
                                           /*consultAtlas=*/true);
        // Keyed on the tier that served, like the sources ledger: a
        // search request degraded to the closed form is a tier-A solve.
        (answer.atlasServed                       ? atlasSolves_
         : answer.servedTier == PlanTier::kSearch ? tierBSolves_
                                                  : tierASolves_)
            .record(answer.solveSeconds);
        return answer;
      },
      call.deadline);

  if (outcome.timedOut) {
    // The coalesced wait expired before the producer delivered. Degrade to a
    // fresh closed-form answer (microseconds) rather than return nothing:
    // for a tier-A request that IS the full answer; for tier B it lands as
    // kNoTimeForSearch. The breaker is not consulted — this caller never
    // attempted a search.
    CancelToken spent;
    spent.requestCancel();
    PlanAnswer answer = solveCanonical(key, spent, /*consultBreaker=*/false,
                                       /*consultAtlas=*/true);
    return finishResponse(std::move(key.text), std::move(answer),
                          /*hit=*/false, /*coalesced=*/true, call,
                          timer.seconds(), /*freshFallback=*/true);
  }

  return finishResponse(std::move(key.text), outcome.answer, outcome.hit,
                        outcome.coalesced, call, timer.seconds());
}

PlanAnswer Oracle::solveUncached(const PlanRequest& req) const {
  // No cache, no breaker, and no atlas: this is the live reference the
  // verify subsystem's atlas-consistency property differentials against.
  return solveCanonical(canonicalize(req), CancelToken(),
                        /*consultBreaker=*/false, /*consultAtlas=*/false);
}

OracleStats Oracle::stats() const {
  OracleStats s = stats_;
  s.cache = cache_.counters();
  s.admission = admission_.counters();
  s.breaker = breaker_.counters();
  s.breakerState = breaker_.state();
  if (options_.atlas) s.atlasCells = options_.atlas->counters();
  s.hitLatency = hitLatency_.snapshot();
  s.tierASolves = tierASolves_.snapshot();
  s.tierBSolves = tierBSolves_.snapshot();
  s.atlasSolves = atlasSolves_.snapshot();
  return s;
}

std::size_t Oracle::saveSnapshot(const std::string& path) const {
  return savePlanCacheSnapshot(cache_, path);
}

SnapshotLoadReport Oracle::tryLoadSnapshot(const std::string& path) {
  return tryLoadPlanCacheSnapshot(cache_, path);
}

SnapshotLoadReport Oracle::loadSnapshotSegment(std::istream& is) {
  return tryLoadPlanCacheSnapshot(cache_, is);
}

std::optional<PlanAnswer> Oracle::peekCached(const CanonicalKey& key) {
  return cache_.tryGet(key);
}

void Oracle::insertReplica(const std::string& keyText,
                           const PlanAnswer& answer) {
  cache_.insertWarm(keyText, answer);
}

std::vector<PlanCache::SnapshotEntry> Oracle::exportCacheEntries() const {
  return cache_.exportEntries();
}

bool Oracle::invalidateCached(const CanonicalKey& key) {
  return cache_.invalidate(key);
}

}  // namespace pushpart
