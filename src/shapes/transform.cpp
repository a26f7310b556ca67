#include "shapes/transform.hpp"

#include <vector>

#include "support/check.hpp"

namespace pushpart {

bool translateCombined(Partition& q, int di, int dj) {
  if (di == 0 && dj == 0) return true;
  const int n = q.n();
  std::vector<std::pair<int, int>> rCells, sCells;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      const Proc p = q.at(i, j);
      if (p == Proc::R) rCells.push_back({i, j});
      else if (p == Proc::S) sCells.push_back({i, j});
    }
  auto inBounds = [&](int i, int j) {
    return i + di >= 0 && i + di < n && j + dj >= 0 && j + dj < n;
  };
  for (const auto& [i, j] : rCells)
    if (!inBounds(i, j)) return false;
  for (const auto& [i, j] : sCells)
    if (!inBounds(i, j)) return false;

  const auto vocBefore = q.volumeOfCommunication();
  // Clear, then replant at the translated positions. Joint translation keeps
  // the R/S relative layout, so no destination collides with the other
  // processor's destination.
  for (const auto& [i, j] : rCells) q.set(i, j, Proc::P);
  for (const auto& [i, j] : sCells) q.set(i, j, Proc::P);
  for (const auto& [i, j] : rCells) q.set(i + di, j + dj, Proc::R);
  for (const auto& [i, j] : sCells) q.set(i + di, j + dj, Proc::S);

  PUSHPART_CHECK_MSG(q.volumeOfCommunication() == vocBefore,
                     "Thm 8.1 violated: joint translation changed VoC from "
                         << vocBefore << " to " << q.volumeOfCommunication());
  return true;
}

bool slideInner(Partition& q, Proc inner, int di, int dj) {
  PUSHPART_CHECK(inner != Proc::P);
  if (di == 0 && dj == 0) return true;
  const Proc outer = (inner == Proc::R) ? Proc::S : Proc::R;
  const Rect innerRect = q.enclosingRect(inner);
  const Rect outerRect = q.enclosingRect(outer);
  if (innerRect.isEmpty() || !outerRect.contains(innerRect)) return false;

  // Destination must stay inside the surrounding rectangle.
  const Rect dest{innerRect.rowBegin + di, innerRect.rowEnd + di,
                  innerRect.colBegin + dj, innerRect.colEnd + dj};
  if (!outerRect.contains(dest)) return false;

  std::vector<std::pair<int, int>> cells;
  for (int i = innerRect.rowBegin; i < innerRect.rowEnd; ++i)
    for (int j = innerRect.colBegin; j < innerRect.colEnd; ++j)
      if (q.at(i, j) == inner) cells.push_back({i, j});

  // Every destination cell must currently belong to the surrounding
  // processor or to the moving region itself; displacing P or overlapping a
  // third processor is outside Thm 8.4's premise.
  for (const auto& [i, j] : cells) {
    const Proc owner = q.at(i + di, j + dj);
    if (owner != outer && owner != inner) return false;
  }

  const auto vocBefore = q.volumeOfCommunication();
  for (const auto& [i, j] : cells) q.set(i, j, outer);
  for (const auto& [i, j] : cells) q.set(i + di, j + dj, inner);

  if (q.volumeOfCommunication() > vocBefore) {
    // Premises not met after all (e.g. the surround was ragged); undo.
    for (const auto& [i, j] : cells) q.set(i + di, j + dj, outer);
    for (const auto& [i, j] : cells) q.set(i, j, inner);
    return false;
  }
  return true;
}

std::optional<ReduceResult> reduceToArchetypeA(Partition& q,
                                               const Ratio& ratio) {
  const auto vocBefore = q.volumeOfCommunication();
  const Archetype before = classifyArchetype(q).archetype;

  const std::optional<CandidateVoc> best = minVocCandidate(q.n(), ratio);
  if (!best || best->voc > vocBefore) return std::nullopt;

  q = makeCandidate(best->shape, q.n(), ratio);
  return ReduceResult{best->shape, vocBefore, best->voc, before};
}

}  // namespace pushpart
