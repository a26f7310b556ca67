#include "verify/shrink.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/check.hpp"

namespace pushpart {
namespace {

/// Safety cap on shrink rounds (never hit in practice).
constexpr int kMaxRounds = 64;

/// Candidate one-step reductions of `c`, most aggressive first.
std::vector<FailingCase> shrinkCandidates(const FailingCase& c, int minN) {
  std::vector<FailingCase> out;
  const auto withN = [&](int n) {
    FailingCase next = c;
    next.n = n;
    out.push_back(next);
  };
  if (c.n > minN) {
    const int halved = std::max(minN, c.n / 2);
    if (halved < c.n) withN(halved);
    withN(c.n - 1);
  }

  // Ratio moves: snap to the simplest ratio outright, then round each
  // component down toward 1 while keeping the §IV validity assumptions.
  // Every move must strictly reduce the measure (n, total speed, not-yet-
  // simplest) so shrinking terminates: the snap in particular may not raise
  // the total (2:1:1 is not "simpler" than 1:1:1, it is larger).
  const Ratio simplest{2, 1, 1};
  if (!(c.ratio == simplest) && simplest.total() <= c.ratio.total()) {
    FailingCase next = c;
    next.ratio = simplest;
    out.push_back(next);
  }
  const auto withRatio = [&](Ratio r) {
    r.p = std::max({r.p, r.r, r.s});
    if (r.valid() && !(r == c.ratio)) {
      FailingCase next = c;
      next.ratio = r;
      out.push_back(next);
    }
  };
  withRatio(Ratio{std::max(1.0, std::floor(c.ratio.p)),
                  std::max(1.0, std::floor(c.ratio.r)),
                  std::max(1.0, std::floor(c.ratio.s))});
  withRatio(Ratio{std::max(1.0, c.ratio.p - 1.0), c.ratio.r, c.ratio.s});
  withRatio(Ratio{c.ratio.p, std::max(1.0, c.ratio.r - 1.0), c.ratio.s});
  return out;
}

}  // namespace

std::string FailingCase::str() const {
  return "n=" + std::to_string(n) + " ratio=" + ratio.str() +
         " seed=" + std::to_string(seed) + " style=" + std::to_string(style);
}

ShrinkResult shrinkCase(const FailingCase& failing, const PropertyHolds& holds,
                        const ShrinkOptions& options) {
  PUSHPART_CHECK_MSG(!holds(failing),
                     "shrinkCase: the input case does not fail — " <<
                         failing.str());
  ShrinkResult result;
  result.minimal = failing;
  ++result.attempts;  // the initial confirmation above

  for (int round = 0; round < kMaxRounds; ++round) {
    bool shrunk = false;
    for (const FailingCase& candidate :
         shrinkCandidates(result.minimal, options.minN)) {
      ++result.attempts;
      if (!holds(candidate)) {
        result.minimal = candidate;
        ++result.rounds;
        shrunk = true;
        break;  // restart from the most aggressive move on the smaller case
      }
    }
    if (!shrunk) break;
  }
  return result;
}

}  // namespace pushpart
