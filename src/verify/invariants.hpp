// Reusable invariant checkers — the verification subsystem's shared core.
//
// The paper's guarantees (§IV-A: a Push never increases the Volume of
// Communication and never grows an enclosing rectangle; element counts are
// conserved by construction) are enforced transactionally inside the Push
// engine. This module restates them — plus the serialization and serving
// contracts the library grew since — as *external* checkers that inspect
// results after the fact, so the fuzzer, the property harness, the corpus
// replay test and `pushpart verify` all share one implementation of "what
// must always hold" instead of each hand-rolling a subset.
//
// Every checker returns a CheckReport: an empty violation list means the
// invariant held. Checkers never throw on a violated invariant (they *record*
// it); they only propagate exceptions from genuinely broken preconditions
// (e.g. unreadable files).
#pragma once

#include <string>
#include <vector>

#include "dfa/dfa.hpp"
#include "dfa/schedule.hpp"
#include "grid/partition.hpp"
#include "grid/ratio.hpp"
#include "grid/bit_partition.hpp"
#include "push/push.hpp"
#include "serve/oracle.hpp"

namespace pushpart {

/// One violated property: which invariant, and the measured evidence.
struct Violation {
  std::string property;  ///< Stable identifier, e.g. "push.voc-nonincrease".
  std::string detail;    ///< Human-readable evidence (numbers, positions).
};

/// Outcome of one or more invariant checks.
struct CheckReport {
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  void add(std::string property, std::string detail);
  void merge(const CheckReport& other);
  /// "ok" or one "property: detail" line per violation.
  std::string str() const;
};

/// Infers the speed ratio a saved partition was built for from its element
/// counts (eP/eS : eR/eS : 1). Exact for partitions built from
/// Ratio::elementCounts up to the integer rounding already present there.
/// Throws std::invalid_argument when R or S owns no cells (no finite ratio).
Ratio inferRatio(const Partition& q);

/// A component-wise confidence interval around an inferred ratio, in the
/// canonical s == 1 scale. Element counts quantize the true shares —
/// Ratio::elementCounts floors R and S (true share in [e, e+1)) and lets P
/// absorb both remainders (true share in (eP − 2, eP]) — so a single
/// partition pins the ratio only to an interval, and near-tied ratios
/// (r ≈ s, or p ≈ r) are genuinely indistinguishable at grid granularity.
/// The interval makes that explicit where the point estimate of inferRatio
/// silently picks a side.
struct RatioInterval {
  Ratio mid{2, 1, 1};  ///< The point estimate (== inferRatio).
  Ratio lo{2, 1, 1};   ///< Component-wise lower bounds (s pinned to 1).
  Ratio hi{2, 1, 1};   ///< Component-wise upper bounds (s pinned to 1).

  /// True when `candidate` (normalized onto the s == 1 scale) lies inside
  /// the interval — the partition is consistent with that ratio.
  bool contains(const Ratio& candidate) const;
};

/// Interval-carrying companion of inferRatio: bounds from the floor-and-
/// absorb rounding of Ratio::elementCounts. Same precondition — R and S
/// must own at least one cell each.
RatioInterval inferRatioInterval(const Partition& q);

/// The partition's incremental counters agree with a full O(N²) recount and
/// every cell is owned ("grid.counters").
CheckReport checkCounters(const Partition& q);

/// Per-processor element counts are identical in `before` and `after`
/// ("conservation.counts") — the Push exchanges cells, never creates or
/// destroys them.
CheckReport checkConservation(const Partition& before, const Partition& after);

/// The §IV-A Push guarantees, checked against a snapshot taken before the
/// push: VoC never increases (strictly decreases for Types 1–4), R/S
/// enclosing rectangles never grow (P is exempt, mirroring the engine's
/// rule), counts are conserved, and the outcome's bookkeeping (vocBefore /
/// vocAfter) matches the measured grids.
CheckReport checkPushOutcome(const Partition& before, const Partition& after,
                             const PushOutcome& outcome);

/// A completed DFA walk: VoC monotone over the whole run (vocEnd <= vocStart,
/// both matching the grids), element counts conserved from q0, and the final
/// partition's counters consistent.
CheckReport checkDfaRun(const Partition& q0, const DfaResult& result);

/// save→load→save produces byte-identical text and a grid equal to the
/// original ("serialize.roundtrip").
CheckReport checkSerializeRoundTrip(const Partition& q);

/// A condensed accept state satisfies Postulate 1 in the weak form the
/// paper's conclusions rely on: it classifies as a Fig. 5 archetype, or —
/// when it is a locked Unknown state — reduceToArchetypeA finds a canonical
/// Archetype A candidate communicating no more than it does. A locked state
/// that *undercuts* every candidate is the refutation the fuzzer hunts
/// ("postulate1.dominance").
CheckReport checkCondensedState(const Partition& condensed, const Ratio& ratio);

/// Tier agreement for the serving layer: for the same canonical request,
/// tier B (search cross-check) must embed tier A's answer verbatim — same
/// shape, model and VoC — and its searched finals must not beat the
/// recommended candidate while claiming confirmation ("serve.tier-agreement").
CheckReport checkOracleTierAgreement(const Oracle& oracle,
                                     const PlanRequest& request);

/// Degradation-ladder contract for the serving layer (DESIGN.md §12),
/// driven through a deliberately spent deadline: a degraded answer must be
/// marked (never silent), must still carry the valid closed-form candidate
/// for the request — same shape, model and VoC as an unhurried tier-A
/// solve — must record a served tier no higher than the requested tier, and
/// must never be cached (the unhurried retry gets full fidelity). Pass an
/// oracle whose circuit breaker is disabled: the checker probes the
/// deadline rungs specifically, and repeated probe failures would otherwise
/// trip the breaker and change which rung answers
/// ("serve.degradation").
CheckReport checkServeDegradation(Oracle& oracle, const PlanRequest& request);

/// Atlas-consistency for the serving layer: serve `request` through an
/// oracle configured with a plan-surface atlas, then re-solve it live
/// (solveUncached bypasses cache, breaker and atlas). When the answer was
/// atlas-served it must carry its certificate — cell coordinates, gap within
/// `gapPct` — keep full fidelity (atlas provenance is not degradation), and
/// its modeled execution time must agree with the live reference to within
/// the certificate bound plus slack for the surface's build granularity
/// ("serve.atlas-consistency"). Non-atlas answers pass vacuously: the
/// fallback path is tier-agreement's job.
CheckReport checkAtlasConsistency(Oracle& oracle, const PlanRequest& request,
                                  double gapPct);

// --- Grid vs bitboard engine equivalence (DESIGN.md §15) -----------------
//
// The bitboard engine (grid/bit_partition) adds owner and presence bitsets to
// the grid and scans them a word at a time; these checkers are the
// differential safety net that keeps it pinned to the element-exact grid.

/// The bitboard state agrees with the grid on the same owners: same size,
/// same cells, and a full recount of its own counters, owner bits and
/// presence bits against those cells ("bits.agreement", "bits.counters").
CheckReport checkBitsGridAgreement(const Partition& q, const BitPartition& b);

/// Lockstep push trajectory: sweeps `schedule` round-robin on both engines
/// from the same start, requiring the identical PushOutcome (applied, type,
/// VoC bookkeeping, elements moved) and full state agreement after every
/// attempt, until the common accept state or `maxSweeps`
/// ("bits.push-lockstep").
CheckReport checkBitsPushLockstep(const Partition& q0, const Schedule& schedule,
                                  int maxSweeps = 64);

/// Lockstep DFA walk: runDfa on the grid vs runDfaT on the bitboard state,
/// same start/schedule/options, must stop for the same reason after the same
/// number of pushes and sweeps with identical VoC bookkeeping, beautify
/// summary and final owners ("bits.dfa-lockstep").
CheckReport checkBitsDfaLockstep(const Partition& q0, const Schedule& schedule,
                                 const DfaOptions& options = {});

/// Full replay of one checked-in counterexample file: load, counters,
/// serialize round-trip, condensed-state dominance (ratio inferred from the
/// grid), and bitboard engine parity — state agreement and identical
/// fullyCondensed and push-availability verdicts per (slow processor,
/// direction). The regression gate for tests/corpus.
CheckReport replayCorpusFile(const std::string& path);

/// All *.pp files directly inside `dir`, sorted by name. Missing or empty
/// directories yield an empty list.
std::vector<std::string> corpusFiles(const std::string& dir);

}  // namespace pushpart
