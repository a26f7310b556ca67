#include "serve/request.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "model/models.hpp"
#include "support/check.hpp"
#include "support/csv.hpp"
#include "support/fnv.hpp"

namespace pushpart {

namespace {

/// Spells a plan key in place. Any key fits: n has at most 7 digits, a
/// speed at most 16 characters, the budget 11 and the seed 20. text() copies
/// it out in one allocation of its exact size, so a response that keeps the
/// text keeps no slack.
class KeySpeller {
 public:
  void put(std::string_view s) {
    PUSHPART_CHECK(s.size() <=
                   static_cast<std::size_t>(std::end(buf_) - end_));
    end_ = std::copy(s.begin(), s.end(), end_);
  }
  void put(char c) { put(std::string_view(&c, 1)); }

  template <typename Int>
  void putInt(Int v) {
    end_ = std::to_chars(end_, std::end(buf_), v).ptr;
  }

  /// Rounds a canonical speed (finite, at least 1) to 6 significant
  /// decimals via text, so the value stored in the key struct is exactly the
  /// value the key spells out (float noise from ratio division cannot split
  /// otherwise-equal cache entries), and puts that spelling. to_chars with a
  /// precision writes what printf's "%.6g" writes in the C locale, and
  /// from_chars parses it correctly rounded, as strtod does. The digits
  /// spell the value as formatNumber would, except where "%.6g" switches to
  /// an exponent for an integer formatNumber prints in full.
  double putRounded(double v) {
    char* const start = end_;
    end_ = std::to_chars(start, std::end(buf_), v, std::chars_format::general,
                         6)
               .ptr;
    double rounded = 0.0;
    std::from_chars(start, end_, rounded);
    if (rounded >= 1e6 && rounded == std::floor(rounded)) {
      end_ = start;
      put(formatNumber(rounded));
    }
    return rounded;
  }

  std::string text() const {
    return std::string(buf_, static_cast<std::size_t>(end_ - buf_));
  }

 private:
  char buf_[256];
  char* end_ = buf_;
};

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

  // The hub only matters on a star network.
  if (canon.topology == Topology::kFullyConnected) canon.star.hub = Proc::P;

  // Tier A ignores the search budget entirely.
  if (canon.tier == PlanTier::kFast) {
    canon.searchRuns = 0;
    canon.searchSeed = 0;
  }

  // Scale-free speeds: fix s = 1 (the paper's normalization), then round so
  // 6:3:3 and 2:1:1 produce byte-identical keys. The key is spelled in one
  // buffer as it is rounded.
  canon.ratio = canon.ratio.normalized();
  KeySpeller key;
  key.put("plan/v1|n=");
  key.putInt(canon.n);
  key.put("|ratio=");
  canon.ratio.p = key.putRounded(canon.ratio.p);
  key.put(":");
  canon.ratio.r = key.putRounded(canon.ratio.r);
  key.put(":1|algo=");
  key.put(algoName(canon.algo));
  key.put("|topo=");
  key.put(topologyName(canon.topology));
  key.put("|hub=");
  key.put(procName(canon.star.hub));
  key.put("|tier=");
  key.put(planTierName(canon.tier));
  key.put("|runs=");
  key.putInt(canon.searchRuns);
  key.put("|seed=");
  key.putInt(canon.searchSeed);

  CanonicalKey out;
  out.request = canon;
  out.text = key.text();
  out.hash = fnv1a(out.text);
  return out;
}

}  // namespace pushpart
