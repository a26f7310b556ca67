#include "serve/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "atlas/builder.hpp"
#include "bounds/bounds.hpp"
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
  answer.tier = req.tier;
  answer.servedTier = PlanTier::kFast;
  // Lower-bound evidence rides every answer: the bound depends only on
  // (n, ratio), so one computation covers whichever candidate is served.
  const std::int64_t vocBound = vocLowerBound(req.n, req.ratio);
  // The one place a chosen partition enters the answer. A family winner
  // passes the canonical best's shape, which the answer keeps either way.
  const auto choose = [&](CandidateShape shape, std::string name,
                          const ModelResult& model, std::int64_t voc) {
    answer.shape = shape;
    answer.familyCandidate = std::move(name);
    answer.model = model;
    answer.voc = voc;
    answer.optimalityGapPct = pushpart::optimalityGapPct(voc, vocBound);
  };
  choose(best.shape, candidateName(best.shape), best.model, best.voc);

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
        choose(best.shape, fam->name, fam->model, fam->voc);
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
      // The certificate: re-cost the cell's winner at the exact request; a
      // gap past the bound means this ratio is not where the surface says
      // it is, so fall back to the live search.
      const AtlasCertificate cert = certifyAtlasHit(
          lk, best, req.algo, req.n, machine, req.topology, req.star);
      if (cert.certifies(options_.atlasGapPct)) {
        const RankedCandidate& served = cert.served;
        choose(served.shape, candidateName(served.shape), served.model,
               served.voc);
        answer.atlasServed = true;
        answer.atlasCertGapPct = cert.gapPct();
        answer.atlasI = lk.i;
        answer.atlasJ = lk.j;
        answer.searchConfirmedCandidate = lk.searchConfirmed;
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

      const SearchEvidence evidence = searchEvidence(
          batch, req.algo, machine, req.topology, req.star,
          [&](int delivered) {
            if (options_.onSearchRun) options_.onSearchRun(key, delivered);
          });
      answer.servedTier = PlanTier::kSearch;
      answer.searchRuns = req.searchRuns;
      answer.searchCompleted = evidence.completed;
      answer.searchBestVoc = evidence.bestVoc;
      answer.searchBestExecSeconds = evidence.bestExecSeconds;
      answer.searchConfirmedCandidate =
          evidence.confirms(answer.model.execSeconds);
      if (evidence.summary.truncated()) {
        // Ladder rung 2: the deadline cancelled the batch mid-flight;
        // completed walks remain best-so-far evidence.
        answer.truncated = true;
        answer.degrade = DegradeReason::kTruncatedSearch;
      }
      if (consultBreaker) {
        if (evidence.summary.truncated() || cancel.cancelled())
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
