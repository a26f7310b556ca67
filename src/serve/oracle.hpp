// The partition-plan oracle: a thread-safe serving layer over the search
// stack (paper §IX candidates + §V–§VII DFA search).
//
// One Oracle instance owns a machine model, a sharded LRU answer cache with
// in-flight coalescing, admission control, a tier-B circuit breaker, and
// per-tier latency histograms. plan() is the whole API: canonicalize the
// request, serve from cache when possible, otherwise solve on the requested
// tier —
//
//   tier A (fast):   rank the six canonical candidates by modeled time
//                    (model/optimal.hpp) and recommend the winner;
//   atlas (lookup):  between tier A and tier B for search-tier requests —
//                    when a precomputed plan surface (src/atlas) is
//                    configured and the ratio lands on a solved,
//                    off-boundary cell, re-cost the cell's winner at the
//                    exact requested ratio and serve it iff the certificate
//                    gap stays within the configured bound, skipping the
//                    batch entirely;
//   tier B (search): tier A plus a budgeted, seeded DFA batch
//                    (dfa/batch.hpp) whose condensed finals cross-check the
//                    candidate ranking, mirroring how the paper's §VII
//                    experiments validate §IX's shapes.
//
// Under load the oracle degrades instead of queueing unboundedly, walking
// the ladder of DESIGN.md §12: tier B within the deadline, else tier B
// truncated (best-so-far search evidence), else tier A closed-form only,
// else load-shed rejection. Every degraded answer says so (PlanAnswer's
// servedTier/degrade/truncated) and is never cached, so full-fidelity
// answers stay deterministic: a cache hit is bit-identical to the cold
// computation it replays.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "atlas/atlas.hpp"
#include "atlas/prefetch.hpp"
#include "dfa/batch.hpp"
#include "model/machine.hpp"
#include "serve/admission.hpp"
#include "serve/answer.hpp"
#include "serve/cache.hpp"
#include "serve/request.hpp"
#include "serve/snapshot.hpp"
#include "support/deadline.hpp"
#include "support/histogram.hpp"

namespace pushpart {

struct OracleOptions {
  /// Machine constants shared by every request (per-request state is the
  /// speed ratio; a cache is only coherent for one machine model).
  Machine machine{};
  std::size_t cacheCapacity = 4096;
  std::size_t cacheShards = 16;
  /// Worker threads for a tier-B batch. 1 keeps the batch deterministic and
  /// avoids thread explosions when the oracle itself is called from many
  /// threads; raise it only for single-client, huge-budget use.
  int searchThreads = 1;
  /// Admission control in front of the solver. Disabled by default
  /// (maxConcurrency == 0); cache hits are never subject to admission.
  AdmissionOptions admission;
  /// Tier-B circuit breaker: trips open after `failureThreshold` consecutive
  /// deadline busts, short-circuiting the search tier to closed-form
  /// answers until a half-open probe succeeds.
  BreakerOptions breaker;
  /// How often a tier-B walk polls its cancel token, in applied pushes.
  std::int64_t cancelCheckEvery = 1024;
  /// Engine state for tier-B search walks. The bitboard engine (default) is
  /// decision-identical to the element grid — the differential suite in
  /// src/verify enforces it, and both hash states alike — and its word scans
  /// make tier-B solves about 4× faster (EXPERIMENTS.md E21), so batches fit
  /// tighter deadlines.
  /// kGrid remains the reference for differential serving tests.
  BatchEngine searchEngine = BatchEngine::kBits;
  /// Precomputed plan surface (src/atlas). When set, a search-tier request
  /// whose ratio lands on a solved, off-boundary cell is answered by
  /// certified O(1) lookup instead of a live tier-B batch: the cell's
  /// winner is re-costed at the exact requested ratio and accepted iff the
  /// certificate gap (winner re-cost gap and surface interpolation gap)
  /// stays within atlasGapPct. Null = no atlas tier.
  std::shared_ptr<PlanAtlas> atlas;
  /// Certificate acceptance bound, percent. An atlas answer whose
  /// certificate gap exceeds this falls back to the live search.
  double atlasGapPct = 5.0;
  /// Which candidate families tier A ranks (src/family). Default: canonical
  /// only — the paper's six shapes, with the atlas tier fully usable. An
  /// extended selection also ranks layered/hierarchical members, serves the
  /// family winner when it strictly beats every canonical shape, and skips
  /// the atlas tier (its surface is canonical-only, so its certificates
  /// cannot vouch for extended winners).
  FamilySet families = FamilySet::canonicalOnly();
  /// Speculatively solve the missed cell and its 4-neighborhood in the
  /// background when a lookup lands on an unsolved cell.
  bool atlasPrefetch = true;
  /// Observability hook: invoked at the start of every underlying (cold)
  /// solve with the canonical key. Runs on the solving thread, outside any
  /// cache lock. Also what makes coalescing deterministically testable.
  std::function<void(const CanonicalKey&)> onSolveStart;
  /// Observability hook: invoked after each delivered tier-B search run with
  /// the number of runs delivered so far. Runs on the solving thread. What
  /// makes mid-batch cancellation (the truncated rung) deterministically
  /// testable.
  std::function<void(const CanonicalKey&, int)> onSearchRun;
};

/// Per-call serving options — the request identifies *what* to solve, this
/// says *how long* the caller is willing to wait. Deliberately not part of
/// the canonical key: a deadline changes the serving path, never the
/// full-fidelity answer.
struct PlanCallOptions {
  /// Time budget for this call. Expired mid-solve, it cancels the tier-B
  /// batch cooperatively; expired while coalesced, it abandons the wait.
  Deadline deadline;
  /// Extra cooperative cancel (e.g. client disconnect). Combined with the
  /// deadline: the solve stops when either fires.
  CancelToken cancel;
};

/// Why a request was load-shed instead of answered.
enum class ShedReason {
  kNone = 0,
  kQueueFull,         ///< Admission queue at capacity.
  kAdmissionTimeout,  ///< Deadline expired waiting for an admission slot.
};

constexpr const char* shedReasonName(ShedReason r) {
  switch (r) {
    case ShedReason::kNone: return "none";
    case ShedReason::kQueueFull: return "queue-full";
    case ShedReason::kAdmissionTimeout: return "admission-timeout";
  }
  return "?";
}

/// What one plan() call experienced (the answer plus serving metadata).
struct PlanResponse {
  PlanAnswer answer;
  bool cacheHit = false;
  bool coalesced = false;
  /// Load-shed: no answer was produced (answer holds defaults). The bottom
  /// rung of the degradation ladder.
  bool shed = false;
  ShedReason shedReason = ShedReason::kNone;
  /// The call finished after its deadline. Always paired with a degrade
  /// mark on the answer (kLate when the answer is otherwise full fidelity).
  bool deadlineExceeded = false;
  double latencySeconds = 0.0;  ///< End-to-end, as seen by this caller.
  std::string key;              ///< Canonical key text.
};

/// Cache counters plus per-tier latency distributions and the overload
/// ledger (degradations by reason, sheds, breaker activity).
struct OracleStats {
  PlanCache::Counters cache;
  AdmissionController::Counters admission;
  CircuitBreaker::Counters breaker;
  BreakerState breakerState = BreakerState::kClosed;
  std::uint64_t shed = 0;             ///< Load-shed responses.
  std::uint64_t degraded = 0;         ///< Answers served below full fidelity.
  std::uint64_t truncatedSearch = 0;  ///< ... of which tier B was cut short.
  std::uint64_t noTimeForSearch = 0;  ///< ... of which tier B never started.
  std::uint64_t breakerOpenServes = 0;  ///< ... short-circuited by the breaker.
  std::uint64_t late = 0;             ///< Full answers marked late.
  // Atlas tier accounting. atlasServed counts certified answers; an
  // uncertified lookup (winner mismatch or certificate gap beyond the
  // bound) falls through to the live search and counts in atlasUncertified.
  std::uint64_t atlasServed = 0;
  std::uint64_t atlasMisses = 0;       ///< Lookup misses (no usable cell).
  std::uint64_t atlasUncertified = 0;  ///< Hits the certificate rejected.
  PlanAtlas::Counters atlasCells;      ///< The atlas's own lookup counters.
  // Per-response source breakdown. Sums (with shed) to every plan() call:
  // a response is exactly one of cache-served (hit or coalesced), atlas-
  // certified, tier-B searched, tier-A closed-form, or shed — so the atlas
  // tier can never mask shed accounting.
  std::uint64_t sourceCache = 0;
  std::uint64_t sourceAtlas = 0;
  std::uint64_t sourceTierA = 0;
  std::uint64_t sourceTierB = 0;
  LatencyHistogram::Snapshot hitLatency;    ///< plan() calls served by cache.
  LatencyHistogram::Snapshot tierASolves;   ///< Cold tier-A solve times.
  LatencyHistogram::Snapshot tierBSolves;   ///< Cold tier-B solve times.
  LatencyHistogram::Snapshot atlasSolves;   ///< Atlas-certified cold serves.

  /// The pinned one-line per-source breakdown shown by the CLI stats:
  /// "sources: atlas=A cache=C tier-A=F tier-B=S shed=X".
  std::string sourcesLine() const;
};

class Oracle {
 public:
  explicit Oracle(OracleOptions options = {});

  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// Answers `req`, consulting the cache first. Thread-safe. Throws
  /// std::invalid_argument for malformed requests and std::runtime_error
  /// when no candidate is feasible (degenerate n); failures are never
  /// cached. Load shedding and degradation are reported in the response,
  /// never thrown.
  PlanResponse plan(const PlanRequest& req) { return plan(req, {}); }
  PlanResponse plan(const PlanRequest& req, const PlanCallOptions& call);

  /// Computes `req`'s answer with no cache, admission or breaker
  /// interaction — the cold path, exposed for verification and
  /// benchmarking.
  PlanAnswer solveUncached(const PlanRequest& req) const;

  OracleStats stats() const;

  /// Persists the answer cache to `path` (atomic rename; see
  /// serve/snapshot.hpp). Returns entries written.
  std::size_t saveSnapshot(const std::string& path) const;

  /// Warms the answer cache from `path`. Corrupt entries are skipped;
  /// a version mismatch throws and loads nothing.
  SnapshotLoadReport loadSnapshot(const std::string& path);

  /// Non-throwing loadSnapshot: version refusal and unreadable files come
  /// back in the report (versionRefused/error) instead of an exception, so
  /// a serving path can start cold and say exactly why.
  SnapshotLoadReport tryLoadSnapshot(const std::string& path);

  /// Loads one snapshot-format document (e.g. a rebalance segment streamed
  /// by a cluster peer) into the cache, non-throwing. Callers that require
  /// a byte-perfect transfer assert on report.clean().
  SnapshotLoadReport loadSnapshotSegment(std::istream& is);

  // -- Replication surface (src/cluster) ----------------------------------
  // The cluster router replicates full-fidelity cache entries across the
  // key's owner nodes and reads them back from any replica; these are the
  // minimal cache pass-throughs that make an Oracle clusterable without
  // exposing the cache itself.

  /// The cached answer for `key`, if resident (counts a hit and refreshes
  /// LRU — a replica read is real traffic). Never solves, never waits on
  /// in-flight solves.
  std::optional<PlanAnswer> peekCached(const CanonicalKey& key);

  /// Inserts a replicated entry. Only full-fidelity answers are accepted
  /// (the cluster shares the single-process cacheability rule); degraded
  /// answers are ignored. `keyText` must be canonical key text.
  void insertReplica(const std::string& keyText, const PlanAnswer& answer);

  /// Every resident cache entry (deterministic order; see
  /// PlanCache::exportEntries) — what rebalance filters by ring ownership.
  std::vector<PlanCache::SnapshotEntry> exportCacheEntries() const;

  /// Drops the cached answer for `key`, if resident — the drift-adaptive
  /// staleness hook (src/adapt): a plan ruled stale must never be re-served.
  /// Returns whether an entry was dropped (counted in the cache's
  /// staleInvalidations). In-flight solves are unaffected.
  bool invalidateCached(const CanonicalKey& key);

  const OracleOptions& options() const { return options_; }

 private:
  /// The cold solve. `consultBreaker` and `consultAtlas` are false on the
  /// solveUncached path — solveUncached is the atlas-bypassing live
  /// reference the verify subsystem differentials against. Degradation
  /// (breaker open, no time, truncation) is recorded in the returned
  /// answer; the ladder's accounting happens in plan().
  PlanAnswer solveCanonical(const CanonicalKey& key, const CancelToken& cancel,
                            bool consultBreaker, bool consultAtlas) const;

  /// Builds the response for a non-shed answer: latency, lateness marking,
  /// degradation counters, per-source accounting. `freshFallback` marks the
  /// coalesced-timeout path whose answer is a fresh solve, not the
  /// leader's — it classifies by the answer, not as a cache serve.
  PlanResponse finishResponse(const CanonicalKey& key, PlanAnswer answer,
                              bool hit, bool coalesced,
                              const PlanCallOptions& call,
                              double latencySeconds,
                              bool freshFallback = false);

  OracleOptions options_;
  PlanCache cache_;
  mutable AdmissionController admission_;
  mutable CircuitBreaker breaker_;
  /// Background neighborhood prefetch; non-null only when an atlas is
  /// configured with atlasPrefetch. Mutable because the cold solve
  /// (logically const) enqueues speculative work on a miss.
  mutable std::unique_ptr<AtlasPrefetcher> prefetcher_;
  LatencyHistogram hitLatency_;
  LatencyHistogram tierASolves_;
  LatencyHistogram tierBSolves_;
  LatencyHistogram atlasSolves_;
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> truncatedSearch_{0};
  std::atomic<std::uint64_t> noTimeForSearch_{0};
  std::atomic<std::uint64_t> breakerOpenServes_{0};
  std::atomic<std::uint64_t> late_{0};
  mutable std::atomic<std::uint64_t> atlasServed_{0};
  mutable std::atomic<std::uint64_t> atlasMisses_{0};
  mutable std::atomic<std::uint64_t> atlasUncertified_{0};
  std::atomic<std::uint64_t> sourceCache_{0};
  std::atomic<std::uint64_t> sourceAtlas_{0};
  std::atomic<std::uint64_t> sourceTierA_{0};
  std::atomic<std::uint64_t> sourceTierB_{0};
};

}  // namespace pushpart
