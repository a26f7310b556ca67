#include "adapt/drift.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace pushpart {

void DriftOptions::validate() const {
  if (n < kNumProcs)
    throw std::invalid_argument("DriftMonitor: n too small to partition");
  if (!(staleGapPct > 0.0))
    throw std::invalid_argument("DriftMonitor: staleGapPct must be positive");
}

DriftMonitor::DriftMonitor(DriftOptions options) : options_(std::move(options)) {
  options_.validate();
}

void DriftMonitor::adopt(CandidateShape shape, const Ratio& plannedRatio) {
  shape_ = shape;
  frozen_ = candidateLines(shape, options_.n, plannedRatio);
  plannedI_ = plannedJ_ = -1;
  if (options_.atlas) {
    int i = -1, j = -1;
    if (options_.atlas->assign(plannedRatio, i, j)) {
      plannedI_ = i;
      plannedJ_ = j;
    }
  }
}

double DriftMonitor::frozenCost(
    const std::array<double, kNumProcs>& logicalSpeed) const {
  for (double speed : logicalSpeed)
    if (!(speed > 0.0)) return std::numeric_limits<double>::infinity();
  // Roles fastest first; the stable sort keeps P ahead on ties. The role
  // at rank k is priced as the model's owner of rank k.
  std::array<Proc, kNumProcs> byRank = {Proc::P, Proc::R, Proc::S};
  std::stable_sort(byRank.begin(), byRank.end(), [&](Proc a, Proc b) {
    return logicalSpeed[procSlot(a)] > logicalSpeed[procSlot(b)];
  });
  std::array<Proc, kNumProcs> label{};
  for (int rank = 0; rank < kNumProcs; ++rank)
    label[procSlot(byRank[static_cast<std::size_t>(rank)])] =
        ownerOfRank(rank, kNumProcs);
  Machine machine = options_.machine;
  machine.ratio = Ratio{logicalSpeed[procSlot(byRank[0])],
                        logicalSpeed[procSlot(byRank[1])],
                        logicalSpeed[procSlot(byRank[2])]};
  StarConfig star = options_.star;
  star.hub = label[procSlot(star.hub)];
  return evalModel(options_.algo, frozen_->relabeled(label), machine,
                   options_.topology, star)
      .execSeconds;
}

DriftVerdict DriftMonitor::evaluate(const Ratio& canonicalEstimate) const {
  return evaluate(canonicalEstimate,
                  {canonicalEstimate.r, canonicalEstimate.s,
                   canonicalEstimate.p});
}

DriftVerdict DriftMonitor::evaluate(
    const Ratio& canonicalEstimate,
    const std::array<double, kNumProcs>& logicalSpeed) const {
  DriftVerdict verdict;
  if (!frozen_) return verdict;  // kNoPlan, fresh
  verdict.bestShape = shape_;

  const PlanAtlas* atlas = options_.atlas.get();
  std::optional<AtlasCell> newCell;
  if (atlas) {
    int i = -1, j = -1;
    if (atlas->assign(canonicalEstimate, i, j)) {
      verdict.cellI = i;
      verdict.cellJ = j;
      if (i == plannedI_ && j == plannedJ_) {
        // Fast path: still inside the plan's own optimality cell. Share
        // drift is bounded by half a grid step — fresh, no re-cost needed.
        verdict.reason = DriftReason::kSameCell;
        return verdict;
      }
      verdict.cellChanged = true;
      newCell = atlas->cell(i, j);
    }
  }

  // Re-cost the frozen plan at the estimated speeds against the best
  // achievable plan there, both through evalModel.
  const Machine atEstimate = [&] {
    Machine m = options_.machine;
    m.ratio = canonicalEstimate;
    return m;
  }();
  const RankedCandidate best =
      selectOptimal(options_.algo, options_.n, atEstimate, options_.topology,
                    options_.star);
  verdict.bestShape = best.shape;
  const double frozen = frozenCost(logicalSpeed);
  verdict.gapPct = best.model.execSeconds > 0.0
                       ? (frozen / best.model.execSeconds - 1.0) * 100.0
                       : 0.0;

  // Step 2: decisive cell certificate — the estimate sits well inside a
  // different winner's region (runner-up gap above the threshold says the
  // surface is sure), so the precomputed data alone certifies staleness.
  if (newCell && newCell->solved && !newCell->boundary &&
      newCell->shape != shape_ &&
      newCell->runnerUpGapPct > options_.staleGapPct) {
    verdict.stale = true;
    verdict.reason = DriftReason::kCellCertificate;
    return verdict;
  }

  // Step 3: the re-cost gap decides (same-winner share drift included).
  verdict.stale = verdict.gapPct > options_.staleGapPct;
  verdict.reason =
      verdict.stale ? DriftReason::kRecostGap : DriftReason::kRecostOk;
  return verdict;
}

}  // namespace pushpart
