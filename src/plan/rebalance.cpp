#include "plan/rebalance.hpp"

#include <cmath>
#include <utility>

#include "push/push.hpp"
#include "support/check.hpp"

namespace pushpart {
namespace {

/// Condenses `q` by repeatedly applying strictly VoC-decreasing pushes to
/// the surviving slow processors. allowEqualVoC=false means every applied
/// push lowers the (integer, bounded-below) VoC, so the sweep terminates.
void condense(Partition& q, Proc dead) {
  const PushOptions options{.allowEqualVoC = false};
  bool improved = true;
  while (improved) {
    improved = false;
    for (Proc active : kSlowProcs) {
      if (active == dead || q.count(active) == 0) continue;
      for (Direction dir : kAllDirections) {
        while (tryPush(q, active, dir, options).applied) improved = true;
      }
    }
  }
}

/// Banded candidate: the first `quota0` dead cells (row-major) go to the
/// faster survivor, the rest to the other — contiguous runs keep the
/// survivors' shapes blocky before condensing.
Partition bandedCandidate(const Partition& q, Proc dead, Proc s0, Proc s1,
                          std::int64_t quota0, std::int64_t quota1) {
  Partition out = q;
  const Rect grid{0, q.n(), 0, q.n()};
  out.claim(grid, dead, s0, quota0);
  out.claim(grid, dead, s1, quota1);
  return out;
}

/// Greedy candidate: each dead cell, row-major, goes to whichever
/// quota-holding survivor yields the lower VoC right now; ties break toward
/// the survivor with more quota left, then toward the faster survivor.
Partition greedyCandidate(const Partition& q, Proc dead, Proc s0, Proc s1,
                          std::int64_t quota0, std::int64_t quota1) {
  Partition out = q;
  std::int64_t left0 = quota0;
  std::int64_t left1 = quota1;
  const int n = q.n();
  for (int i = 0; i < n; ++i) {
    if (!q.rowHas(dead, i)) continue;
    for (int j = 0; j < n; ++j) {
      if (q.at(i, j) != dead) continue;
      Proc pick = s0;
      if (left0 == 0) {
        pick = s1;
      } else if (left1 == 0) {
        pick = s0;
      } else {
        out.set(i, j, s0);
        const std::int64_t voc0 = out.volumeOfCommunication();
        out.set(i, j, s1);
        const std::int64_t voc1 = out.volumeOfCommunication();
        if (voc0 < voc1) pick = s0;
        else if (voc1 < voc0) pick = s1;
        else pick = left0 >= left1 ? s0 : s1;
      }
      out.set(i, j, pick);
      if (pick == s0) --left0;
      else --left1;
    }
  }
  return out;
}

}  // namespace

RebalanceResult rebalanceOnDeath(const Partition& q, Proc dead,
                                 const Ratio& ratio, int fromPivot) {
  requireThreeOwners(q);
  PUSHPART_CHECK_MSG(ratio.valid(), "invalid speed ratio " << ratio.str());
  PUSHPART_CHECK_MSG(fromPivot >= 0 && fromPivot <= q.n(),
                     "fromPivot " << fromPivot << " outside [0, " << q.n()
                                  << "]");

  RebalanceResult result;
  result.dead = dead;
  // The two survivors, faster first (q-encoding order breaks speed ties).
  auto& [s0, s1] = result.survivors;
  s0 = dead == Proc::R ? Proc::S : Proc::R;
  s1 = dead == Proc::P ? Proc::S : Proc::P;
  if (ratio.speed(s1) > ratio.speed(s0)) std::swap(s0, s1);
  result.fromPivot = fromPivot;
  result.vocBefore = q.volumeOfCommunication();
  result.reassigned = q.count(dead);

  // Split the dead processor's cells in proportion to survivor speeds; the
  // faster survivor absorbs the rounding remainder.
  const double share1 =
      ratio.speed(s1) / (ratio.speed(s0) + ratio.speed(s1));
  const std::int64_t quota1 = static_cast<std::int64_t>(
      std::llround(static_cast<double>(result.reassigned) * share1));
  const std::int64_t quota0 = result.reassigned - quota1;
  result.gained[procSlot(s0)] = quota0;
  result.gained[procSlot(s1)] = quota1;

  Partition banded = bandedCandidate(q, dead, s0, s1, quota0, quota1);
  condense(banded, dead);
  Partition greedy = greedyCandidate(q, dead, s0, s1, quota0, quota1);
  condense(greedy, dead);

  result.after = greedy.volumeOfCommunication() <
                         banded.volumeOfCommunication()
                     ? std::move(greedy)
                     : std::move(banded);
  result.vocAfter = result.after.volumeOfCommunication();
  PUSHPART_CHECK(result.after.count(dead) == 0);
  PUSHPART_CHECK(result.after.count(s0) == q.count(s0) + quota0);
  PUSHPART_CHECK(result.after.count(s1) == q.count(s1) + quota1);

  result.deltaPlan = buildElementPlanRange(result.after, fromPivot);
  result.deltaPlanVerified =
      verifyElementPlanRange(result.after, result.deltaPlan, fromPivot);
  return result;
}

}  // namespace pushpart
