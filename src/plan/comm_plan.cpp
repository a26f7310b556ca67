#include "plan/comm_plan.hpp"

#include <cstddef>

#include "support/check.hpp"

namespace pushpart {

std::vector<PivotTransfers> buildElementPlanRange(const Partition& q,
                                                  int firstPivot) {
  requireThreeOwners(q);
  const int n = q.n();
  PUSHPART_CHECK_MSG(firstPivot >= 0 && firstPivot <= n,
                     "firstPivot " << firstPivot << " outside [0, " << n
                                   << "]");
  // At any pivot, row i's A element goes to the c_i − 1 owners of row i
  // other than the one holding it, and column j's B element to c_j − 1
  // owners, so every pivot sends Σ_i (c_i − 1) and Σ_j (c_j − 1) elements.
  std::size_t aPerPivot = 0;
  std::size_t bPerPivot = 0;
  for (int line = 0; line < n; ++line) {
    aPerPivot += static_cast<std::size_t>(q.procsInRow(line) - 1);
    bPerPivot += static_cast<std::size_t>(q.procsInCol(line) - 1);
  }
  std::vector<PivotTransfers> plan;
  plan.reserve(static_cast<std::size_t>(n - firstPivot));
  for (int k = firstPivot; k < n; ++k) {
    PivotTransfers step;
    step.pivot = k;
    step.aColumn.reserve(aPerPivot);
    step.bRow.reserve(bPerPivot);
    // A(i, k): needed by every processor computing C cells in row i.
    for (int i = 0; i < n; ++i) {
      const Proc owner = q.at(i, k);
      for (Proc r : kAllProcs) {
        if (r == owner || !q.rowHas(r, i)) continue;
        step.aColumn.push_back({i, k, owner, r});
      }
    }
    // B(k, j): needed by every processor computing C cells in column j.
    for (int j = 0; j < n; ++j) {
      const Proc owner = q.at(k, j);
      for (Proc r : kAllProcs) {
        if (r == owner || !q.colHas(r, j)) continue;
        step.bRow.push_back({k, j, owner, r});
      }
    }
    plan.push_back(std::move(step));
  }
  return plan;
}

std::vector<PivotTransfers> buildElementPlan(const Partition& q) {
  return buildElementPlanRange(q, 0);
}

std::array<std::array<std::int64_t, kNumProcs>, kNumProcs> planVolumes(
    const std::vector<PivotTransfers>& plan) {
  std::array<std::array<std::int64_t, kNumProcs>, kNumProcs> v{};
  for (const PivotTransfers& step : plan) {
    for (const ElementTransfer& t : step.aColumn)
      ++v[procSlot(t.from)][procSlot(t.to)];
    for (const ElementTransfer& t : step.bRow)
      ++v[procSlot(t.from)][procSlot(t.to)];
  }
  return v;
}

namespace {

/// Directed volumes the suffix [firstPivot, N) requires, recounted from
/// per-line occupancy (independently of any plan).
std::array<std::array<std::int64_t, kNumProcs>, kNumProcs> rangeVolumes(
    const Partition& q, int firstPivot) {
  std::array<std::array<std::int64_t, kNumProcs>, kNumProcs> v{};
  const int n = q.n();
  for (int k = firstPivot; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      const Proc owner = q.at(i, k);
      for (Proc r : kAllProcs)
        if (r != owner && q.rowHas(r, i)) ++v[procSlot(owner)][procSlot(r)];
    }
    for (int j = 0; j < n; ++j) {
      const Proc owner = q.at(k, j);
      for (Proc r : kAllProcs)
        if (r != owner && q.colHas(r, j)) ++v[procSlot(owner)][procSlot(r)];
    }
  }
  return v;
}

}  // namespace

bool verifyElementPlanRange(const Partition& q,
                            const std::vector<PivotTransfers>& plan,
                            int firstPivot) {
  requireThreeOwners(q);
  const int n = q.n();
  if (firstPivot < 0 || firstPivot > n) return false;
  if (static_cast<int>(plan.size()) != n - firstPivot) return false;

  auto isProc = [](Proc p) { return procSlot(p) < kNumProcs; };
  auto inRange = [n](int line) { return line >= 0 && line < n; };

  // (1) Validity: coordinates match the pivot and lie in the grid, sender
  // and receiver are processors, senders own what they send, receivers
  // genuinely need it, nobody is sent their own data.
  // (2) Uniqueness: no duplicate deliveries. A transfer of pivot k stamps
  // its (kind, line, receiver) slot with k + 1, so a slot already holding
  // k + 1 is a duplicate, and older stamps need no reset between pivots.
  // Kind 0 = A-column transfer (line = row i), kind 1 = B-row transfer
  // (line = column j).
  std::vector<int> stamp(2 * static_cast<std::size_t>(n) * kNumProcs, 0);
  auto firstDelivery = [&](int kind, int line, Proc to, int k) {
    int& slot = stamp[static_cast<std::size_t>((kind * n + line) * kNumProcs) +
                      procSlot(to)];
    if (slot == k + 1) return false;
    slot = k + 1;
    return true;
  };
  for (int k = firstPivot; k < n; ++k) {
    const PivotTransfers& step = plan[static_cast<std::size_t>(k - firstPivot)];
    if (step.pivot != k) return false;
    for (const ElementTransfer& t : step.aColumn) {
      if (t.j != k || !inRange(t.i)) return false;
      if (!isProc(t.from) || !isProc(t.to)) return false;
      if (q.at(t.i, t.j) != t.from) return false;
      if (t.to == t.from) return false;
      if (!q.rowHas(t.to, t.i)) return false;  // nobody needs it there
      if (!firstDelivery(0, t.i, t.to, k)) return false;
    }
    for (const ElementTransfer& t : step.bRow) {
      if (t.i != k || !inRange(t.j)) return false;
      if (!isProc(t.from) || !isProc(t.to)) return false;
      if (q.at(t.i, t.j) != t.from) return false;
      if (t.to == t.from) return false;
      if (!q.colHas(t.to, t.j)) return false;
      if (!firstDelivery(1, t.j, t.to, k)) return false;
    }
  }

  // (3) Completeness: valid + unique transfers are a subset of the needed
  // set, so matching the directed volumes of the pivot range exactly
  // implies equality.
  const auto got = planVolumes(plan);
  const auto want = rangeVolumes(q, firstPivot);
  if (got != want) return false;
  if (firstPivot == 0) {
    // Full-range cross-check against the O(1)-maintained Eq. 1 volumes.
    if (want != pairVolumes(q)) return false;
  }
  return true;
}

bool verifyElementPlan(const Partition& q,
                       const std::vector<PivotTransfers>& plan) {
  return verifyElementPlanRange(q, plan, 0);
}

}  // namespace pushpart
