#include "atlas/atlas.hpp"

#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>

namespace pushpart {

Ratio AtlasGridSpec::ratioAt(int i, int j) const {
  return Ratio{prMin + prStep() * static_cast<double>(i),
               rrMin + rrStep() * static_cast<double>(j), 1.0};
}

bool AtlasGridSpec::validCell(int i, int j) const {
  if (i < 0 || i >= prSteps || j < 0 || j >= rrSteps) return false;
  // Canonical form requires P_r >= R_r (>= S_r = 1). Compare the generated
  // coordinates, not the indices, so the rule matches what ratioAt solves.
  const Ratio q = ratioAt(i, j);
  return q.p >= q.r;
}

void AtlasGridSpec::validate() const {
  auto bad = [](const std::string& what) {
    throw std::invalid_argument("AtlasGridSpec: " + what);
  };
  if (prSteps < 2 || rrSteps < 2) bad("needs >= 2 steps per axis");
  if (points() > kMaxPoints)
    bad("more than " + std::to_string(kMaxPoints) + " grid points");
  if (!(prMin >= 1.0) || !(rrMin >= 1.0))
    bad("ratio bounds must be >= 1 (canonical form has S_r = 1)");
  if (!(prMax > prMin) || !(rrMax > rrMin)) bad("max must exceed min");
  if (!(prMax >= rrMin))
    bad("grid holds no cells with P_r >= R_r");
}

namespace {

/// Validates before the cell vector is sized: points() of a negative step
/// count wraps to a huge size_t.
const AtlasGridSpec& validated(const AtlasGridSpec& spec) {
  spec.validate();
  return spec;
}

}  // namespace

PlanAtlas::PlanAtlas(AtlasGridSpec spec, AtlasBuildInfo info)
    : spec_(validated(spec)), info_(info), cells_(spec_.points()) {
  if (info_.n < 4)
    throw std::invalid_argument("PlanAtlas: build granularity n too small");
}

bool PlanAtlas::assign(const Ratio& ratio, int& i, int& j) const {
  const Ratio q = ratio.normalized();
  if (q.p < spec_.prMin || q.p > spec_.prMax || q.r < spec_.rrMin ||
      q.r > spec_.rrMax)
    return false;
  // Round half up via plain floor arithmetic: a deterministic pure function
  // of the (already %.6g-rounded) canonical doubles, so equal keys always
  // land in the same cell — including exactly at cell edges.
  i = static_cast<int>(std::floor((q.p - spec_.prMin) / spec_.prStep() + 0.5));
  j = static_cast<int>(std::floor((q.r - spec_.rrMin) / spec_.rrStep() + 0.5));
  if (i >= spec_.prSteps) i = spec_.prSteps - 1;
  if (j >= spec_.rrSteps) j = spec_.rrSteps - 1;
  return true;
}

AtlasLookup PlanAtlas::lookup(const Ratio& ratio) const {
  AtlasLookup out;
  counters_.lookups.add();
  if (!assign(ratio, out.i, out.j)) {
    out.miss = AtlasMissReason::kOutOfRange;
    counters_.outOfRange.add();
    return out;
  }

  std::shared_lock<std::shared_mutex> lock(mutex_);
  const AtlasCell& cell = cells_[indexOf(out.i, out.j)];
  if (!spec_.validCell(out.i, out.j) || !cell.solved) {
    out.miss = AtlasMissReason::kUnsolved;
    counters_.unsolved.add();
    return out;
  }
  if (cell.boundary) {
    out.miss = AtlasMissReason::kBoundary;
    counters_.boundary.add();
    return out;
  }

  out.hit = true;
  out.shape = cell.shape;
  out.interpNormVoc = cell.normVoc;
  out.searchConfirmed = cell.searchConfirmed;
  out.origin = cell.origin;

  // Bilinear refinement: when the four grid points surrounding the exact
  // ratio are all solved, off-boundary and agree on the winner, blend their
  // surface values; a crossover anywhere in the quad falls back to the
  // nearest cell's own value (the winner is unambiguous either way — the
  // certificate re-costs it at the exact ratio).
  const Ratio q = ratio.normalized();
  const double fx = (q.p - spec_.prMin) / spec_.prStep();
  const double fy = (q.r - spec_.rrMin) / spec_.rrStep();
  int i0 = static_cast<int>(std::floor(fx));
  int j0 = static_cast<int>(std::floor(fy));
  if (i0 >= spec_.prSteps - 1) i0 = spec_.prSteps - 2;
  if (j0 >= spec_.rrSteps - 1) j0 = spec_.rrSteps - 2;
  if (i0 >= 0 && j0 >= 0) {
    const AtlasCell* quad[4] = {
        &cells_[indexOf(i0, j0)], &cells_[indexOf(i0 + 1, j0)],
        &cells_[indexOf(i0, j0 + 1)], &cells_[indexOf(i0 + 1, j0 + 1)]};
    bool uniform = spec_.validCell(i0, j0) && spec_.validCell(i0 + 1, j0) &&
                   spec_.validCell(i0, j0 + 1) &&
                   spec_.validCell(i0 + 1, j0 + 1);
    for (const AtlasCell* c : quad)
      uniform = uniform && c->solved && !c->boundary && c->shape == cell.shape;
    if (uniform) {
      const double tx = fx - i0;
      const double ty = fy - j0;
      out.interpNormVoc =
          quad[0]->normVoc * (1 - tx) * (1 - ty) +
          quad[1]->normVoc * tx * (1 - ty) +
          quad[2]->normVoc * (1 - tx) * ty + quad[3]->normVoc * tx * ty;
      out.bilinear = true;
      // A blended value is only as trustworthy as its least-verified corner.
      for (const AtlasCell* c : quad)
        out.searchConfirmed = out.searchConfirmed && c->searchConfirmed;
    }
  }

  counters_.hits.add();
  return out;
}

std::optional<AtlasCell> PlanAtlas::cell(int i, int j) const {
  if (i < 0 || i >= spec_.prSteps || j < 0 || j >= spec_.rrSteps)
    return std::nullopt;
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return cells_[indexOf(i, j)];
}

void PlanAtlas::insert(int i, int j, AtlasCell cell) {
  if (!spec_.validCell(i, j))
    throw std::invalid_argument("PlanAtlas::insert: (" + std::to_string(i) +
                                "," + std::to_string(j) +
                                ") is not a valid cell");
  cell.solved = true;
  std::unique_lock<std::shared_mutex> lock(mutex_);
  cells_[indexOf(i, j)] = cell;
  // The new winner can create or dissolve crossover fronts at the cell and
  // each 4-neighbor; re-derive exactly that neighborhood.
  deriveBoundaryLocked(i, j);
  deriveBoundaryLocked(i - 1, j);
  deriveBoundaryLocked(i + 1, j);
  deriveBoundaryLocked(i, j - 1);
  deriveBoundaryLocked(i, j + 1);
  counters_.inserts.add();
}

void PlanAtlas::deriveBoundaryLocked(int i, int j) {
  if (!spec_.validCell(i, j)) return;
  AtlasCell& cell = cells_[indexOf(i, j)];
  if (!cell.solved) return;
  const int di[4] = {-1, 1, 0, 0};
  const int dj[4] = {0, 0, -1, 1};
  bool boundary = false;
  for (int k = 0; k < 4 && !boundary; ++k) {
    const int ni = i + di[k];
    const int nj = j + dj[k];
    if (!spec_.validCell(ni, nj)) continue;
    const AtlasCell& nb = cells_[indexOf(ni, nj)];
    if (nb.solved && nb.shape != cell.shape) boundary = true;
  }
  cell.boundary = boundary;
}

AtlasCertificate certifyAtlasHit(const AtlasLookup& hit,
                                 const RankedCandidate& best, Algo algo,
                                 int n, const Machine& machine,
                                 Topology topology, StarConfig star) {
  // (a) The cell's winner must model within the bound of the exact best
  // (zero when the shapes agree, the common interior-cell case). (b) The
  // surface value must agree with the served shape's exact normalized VoC,
  // bounding how far the request sits from the solved grid.
  AtlasCertificate cert{best};
  if (hit.shape != best.shape) {
    if (const std::optional<RankedCandidate> rc =
            rankOne(hit.shape, algo, n, machine, topology, star)) {
      cert.served = *rc;
      cert.winnerGapPct = (rc->model.execSeconds - best.model.execSeconds) /
                          best.model.execSeconds * 100.0;
    } else {
      cert.winnerGapPct = AtlasCell::kMaxGapPct;
    }
  }
  const double exactNorm =
      static_cast<double>(cert.served.voc) /
      (static_cast<double>(n) * static_cast<double>(n));
  cert.surfaceGapPct =
      exactNorm > 0.0
          ? std::fabs(hit.interpNormVoc - exactNorm) / exactNorm * 100.0
          : (hit.interpNormVoc > 0.0 ? AtlasCell::kMaxGapPct : 0.0);
  return cert;
}

std::size_t PlanAtlas::solvedCells() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::size_t solved = 0;
  for (const AtlasCell& c : cells_)
    if (c.solved) ++solved;
  return solved;
}

std::vector<std::pair<int, int>> PlanAtlas::boundaryCells() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::pair<int, int>> out;
  for (int i = 0; i < spec_.prSteps; ++i)
    for (int j = 0; j < spec_.rrSteps; ++j)
      if (cells_[indexOf(i, j)].solved && cells_[indexOf(i, j)].boundary)
        out.emplace_back(i, j);
  return out;
}

}  // namespace pushpart
