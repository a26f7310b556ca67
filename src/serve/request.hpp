// Plan-request canonicalization for the partition-plan oracle.
//
// A PlanRequest asks the serving layer "which partition shape should these
// three processors use?". Many syntactically different requests are the same
// question: speed ratios are scale-free (6:3:3 ≡ 2:1:1), the R/S labels are
// interchangeable (the models are symmetric under relabeling the two
// non-fastest processors, provided a star hub is relabeled with them), the
// hub is irrelevant on a fully-connected network, and tier-A requests carry
// no search budget. canonicalize() folds every such request onto one
// canonical form — the cache key — so equivalent requests share one cache
// entry and one in-flight computation.
#pragma once

#include <cstdint>
#include <string>

#include "grid/ratio.hpp"
#include "model/algo.hpp"
#include "model/topology.hpp"

namespace pushpart {

/// Which answer path the caller wants.
enum class PlanTier {
  kFast = 0,    ///< Ranked canonical candidates only (model evaluation).
  kSearch = 1,  ///< Candidates cross-checked by a budgeted DFA batch search.
};

constexpr const char* planTierName(PlanTier t) {
  switch (t) {
    case PlanTier::kFast: return "fast";
    case PlanTier::kSearch: return "search";
  }
  return "?";
}

/// One question to the oracle. Machine constants (bandwidth, flop rate) are
/// oracle-level configuration, not per-request state: a cache is only
/// coherent for one machine model.
struct PlanRequest {
  int n = 100;                   ///< Matrix edge length.
  Ratio ratio{2, 1, 1};          ///< P_r : R_r : S_r relative speeds.
  Algo algo = Algo::kSCB;
  Topology topology = Topology::kFullyConnected;
  StarConfig star{};             ///< Hub; only meaningful under kStar.
  PlanTier tier = PlanTier::kFast;
  int searchRuns = 16;           ///< Tier-B budget: DFA walks to perform.
  std::uint64_t searchSeed = 1;  ///< Tier-B batch seed (reproducibility).

  friend bool operator==(const PlanRequest&, const PlanRequest&) = default;
};

/// A canonicalized request plus its serialized cache key.
struct CanonicalKey {
  PlanRequest request;  ///< The canonical form actually solved.
  std::string text;     ///< Human-readable key, unique per canonical form.
  std::uint64_t hash = 0;  ///< FNV-1a of text (shard selector).
};

/// Normalizes `req` into its canonical form and derives the cache key:
///   * ratio: R/S swapped so r >= s, then scaled so s == 1 (6:3:3 -> 2:1:1);
///     an R/S swap relabels a star hub with it; components are rounded to 6
///     significant decimals so float noise cannot split cache entries.
///   * topology: fully-connected forces the (irrelevant) hub to P.
///   * tier: kFast zeroes searchRuns and searchSeed (they don't affect the
///     answer); kSearch keeps both.
/// Throws std::invalid_argument on malformed requests (n <= 0, n above
/// kMaxModelN, invalid ratio — speeds not finite and positive, or P not the
/// fastest — non-positive tier-B budget).
CanonicalKey canonicalize(const PlanRequest& req);

}  // namespace pushpart
