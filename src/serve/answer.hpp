// The oracle's answer type, shared by both tiers.
#pragma once

#include <cstdint>
#include <string>

#include "family/family.hpp"
#include "model/models.hpp"
#include "serve/request.hpp"
#include "shapes/candidates.hpp"

namespace pushpart {

/// How an answer fell short of the requested tier under overload
/// (DESIGN.md §12's degradation ladder). kNone means full fidelity.
enum class DegradeReason {
  kNone = 0,
  kTruncatedSearch,  ///< Tier B started; the deadline cancelled it mid-batch.
  kNoTimeForSearch,  ///< Deadline left no budget for tier B at all.
  kBreakerOpen,      ///< Tier B short-circuited by the open circuit breaker.
  kLate,             ///< Full answer, but it completed after its deadline.
};

constexpr const char* degradeReasonName(DegradeReason r) {
  switch (r) {
    case DegradeReason::kNone: return "none";
    case DegradeReason::kTruncatedSearch: return "truncated-search";
    case DegradeReason::kNoTimeForSearch: return "no-time-for-search";
    case DegradeReason::kBreakerOpen: return "breaker-open";
    case DegradeReason::kLate: return "late";
  }
  return "?";
}

/// One resolved plan: the recommended canonical shape plus the modeled cost
/// evidence behind it. Cached verbatim — a cache hit returns the stored
/// answer bit-for-bit, including the wall time of the cold solve that
/// produced it (the *request* latency lives in PlanResponse). Only
/// full-fidelity answers are cached: a degraded or truncated answer is
/// served once and recomputed on the next request.
struct PlanAnswer {
  /// Best *canonical* shape for the request — always set, even when an
  /// extended family member is served (family/familyCandidate below), so
  /// shape-keyed consumers (atlas certificates, replication) stay coherent.
  CandidateShape shape = CandidateShape::kSquareCorner;
  ModelResult model;        ///< Modeled timing of the recommended partition.
  std::int64_t voc = 0;     ///< Volume of Communication of that partition.
  PlanTier tier = PlanTier::kFast;  ///< Tier the request asked for.
  /// Tier that actually produced evidence; <= tier. A degraded tier-B
  /// request that only got the closed-form ranking records kFast here.
  PlanTier servedTier = PlanTier::kFast;
  DegradeReason degrade = DegradeReason::kNone;
  /// Tier-B evidence is partial: the batch was cancelled mid-flight and
  /// searchCompleted < searchRuns walks finished.
  bool truncated = false;
  double solveSeconds = 0.0;  ///< Wall time of the underlying cold solve.

  /// True when the answer is exactly what an unhurried solve would produce —
  /// the cacheability predicate.
  bool fullFidelity() const {
    return degrade == DegradeReason::kNone && !truncated;
  }

  // Tier-B evidence (all zero for tier A): the budgeted DFA batch search
  // cross-checks the candidate ranking the way the paper's §VII experiments
  // validate §IX's shapes.
  // Lower-bound evidence (src/bounds): how far the served partition's VoC
  // sits above the scenario's memory-independent communication lower bound,
  // in percent (0 when the bound is met). Computed for every answer.
  double optimalityGapPct = 0.0;
  // Family evidence (src/family): which candidate family the served
  // partition came from and its candidate token ("Square-Corner",
  // "layers:P/R-S:r", ...). Canonical unless the oracle ranked extended
  // families and one strictly beat every canonical shape — then model/voc
  // above are the family winner's while shape stays the canonical best.
  FamilyId family = FamilyId::kCanonical;
  std::string familyCandidate;

  int searchRuns = 0;        ///< Walks requested.
  int searchCompleted = 0;   ///< Walks that reached an accept state.
  std::int64_t searchBestVoc = 0;       ///< Best VoC among searched finals.
  double searchBestExecSeconds = 0.0;   ///< Best modeled time among finals.
  /// True when no searched partition modeled faster than the recommended
  /// candidate — the search *confirmed* the closed-form ranking.
  bool searchConfirmedCandidate = false;

  // Atlas evidence: the answer was served from the precomputed plan surface
  // (src/atlas) instead of a live tier-B batch. The shape/model/voc above
  // were still re-costed at the *exact* requested ratio (the certificate),
  // so the answer is deterministic and cacheable — atlasServed is a
  // provenance mark, not a degradation.
  bool atlasServed = false;
  /// The certificate gap the serve accepted: max of the winner re-cost gap
  /// and the surface interpolation gap, percent. Always <= the oracle's
  /// configured bound when atlasServed.
  double atlasCertGapPct = 0.0;
  int atlasI = -1;  ///< Grid cell the answer came from (-1 when unused).
  int atlasJ = -1;

  friend bool operator==(const PlanAnswer&, const PlanAnswer&) = default;
};

}  // namespace pushpart
