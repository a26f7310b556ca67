#include "serve/request.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "model/models.hpp"
#include "support/fnv.hpp"

namespace pushpart {

namespace {

/// Rounds to 6 significant decimals via text so the canonical ratio stored
/// in the key struct is exactly the value the key text spells out (float
/// noise from ratio division cannot split otherwise-equal cache entries).
double roundForKey(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return std::strtod(buf, nullptr);
}

}  // namespace

CanonicalKey canonicalize(const PlanRequest& req) {
  if (req.n <= 0)
    throw std::invalid_argument("PlanRequest: n must be positive, got " +
                                std::to_string(req.n));
  if (req.n > kMaxModelN)
    throw std::invalid_argument("PlanRequest: n must be at most " +
                                std::to_string(kMaxModelN) +
                                " (n^3 MACs must fit in int64), got " +
                                std::to_string(req.n));
  for (const double speed : {req.ratio.p, req.ratio.r, req.ratio.s})
    if (!(std::isfinite(speed) && speed > 0))
      throw std::invalid_argument(
          "PlanRequest: ratio speeds must be finite and positive (" +
          req.ratio.str() + ")");
  if (!(req.ratio.p >= req.ratio.r && req.ratio.p >= req.ratio.s))
    throw std::invalid_argument(
        "PlanRequest: P must be the (equal-)fastest processor (" +
        req.ratio.str() + ")");
  if (req.tier == PlanTier::kSearch && req.searchRuns <= 0)
    throw std::invalid_argument(
        "PlanRequest: tier-B search budget must be positive, got runs=" +
        std::to_string(req.searchRuns));

  PlanRequest canon = req;

  // R and S are interchangeable labels: order them r >= s, relabeling a star
  // hub along with them so the request describes the same physical machine.
  if (canon.ratio.r < canon.ratio.s) {
    std::swap(canon.ratio.r, canon.ratio.s);
    if (canon.star.hub == Proc::R)
      canon.star.hub = Proc::S;
    else if (canon.star.hub == Proc::S)
      canon.star.hub = Proc::R;
  }

  // Scale-free speeds: fix s = 1 (the paper's normalization), then round so
  // 6:3:3 and 2:1:1 produce byte-identical keys.
  canon.ratio = canon.ratio.normalized();
  canon.ratio.p = roundForKey(canon.ratio.p);
  canon.ratio.r = roundForKey(canon.ratio.r);
  canon.ratio.s = 1.0;

  // The hub only matters on a star network.
  if (canon.topology == Topology::kFullyConnected) canon.star.hub = Proc::P;

  // Tier A ignores the search budget entirely.
  if (canon.tier == PlanTier::kFast) {
    canon.searchRuns = 0;
    canon.searchSeed = 0;
  }

  CanonicalKey key;
  key.request = canon;
  key.text = "plan/v1|n=" + std::to_string(canon.n) +
             "|ratio=" + canon.ratio.str() +
             "|algo=" + algoName(canon.algo) +
             "|topo=" + topologyName(canon.topology) +
             "|hub=" + std::string(1, procName(canon.star.hub)) +
             "|tier=" + planTierName(canon.tier) +
             "|runs=" + std::to_string(canon.searchRuns) +
             "|seed=" + std::to_string(canon.searchSeed);
  key.hash = fnv1a(key.text);
  return key;
}

}  // namespace pushpart
