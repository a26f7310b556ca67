// Shape transformations: Theorems 8.1–8.4.
//
// The paper proves that every non-A archetype can be transformed into an
// Archetype A partition without increasing the Volume of Communication:
//
//   Thm 8.1 — translating R and S *jointly* (relative positions fixed) never
//             changes VoC. Implemented exactly as translateCombined.
//   Thm 8.4 — in a surround (Archetype D), the inner rectangle may be slid
//             against the surrounding processor's edge, yielding Archetype B.
//             Implemented exactly as slideInner.
//   Thm 8.2/8.3 — L-shapes and interlocks unfold/push into Archetype A.
//             Thm 8.3's content is the beautify pass (push/beautify.hpp);
//             Thm 8.2's is realised constructively by reduceToArchetypeA,
//             which selects the least-VoC canonical Archetype A candidate of
//             the same element counts (minVocCandidate) and verifies it
//             communicates no more than the input — the theorem's
//             guarantee, enforced per instance.
#pragma once

#include <optional>

#include "grid/partition.hpp"
#include "shapes/archetype.hpp"
#include "shapes/candidates.hpp"

namespace pushpart {

/// Thm 8.1: translates every R and S cell by (di, dj), backfilling vacated
/// cells with P. Returns false (leaving q untouched) when any translated
/// cell would leave the matrix or the translation is identity-free overlap
/// with itself is fine (cells move jointly). VoC is provably unchanged; the
/// implementation asserts it.
bool translateCombined(Partition& q, int di, int dj);

/// Thm 8.4 step: when `inner`'s enclosing rectangle lies strictly inside the
/// other slow processor's, slides the inner region by (di, dj) within the
/// surrounding rectangle, swapping cells with the surrounding processor.
/// Returns false when the move would leave the surrounding rectangle or the
/// destination region contains cells of a third processor. Asserts VoC does
/// not increase.
bool slideInner(Partition& q, Proc inner, int di, int dj);

/// Outcome of reduceToArchetypeA.
struct ReduceResult {
  CandidateShape shape;        ///< Canonical shape selected.
  std::int64_t vocBefore = 0;
  std::int64_t vocAfter = 0;
  Archetype archetypeBefore = Archetype::Unknown;
};

/// Thms 8.2–8.4 combined, constructively: replaces q with the minimum-VoC
/// feasible canonical Archetype A candidate of the same size and ratio.
/// Returns std::nullopt (q untouched) if no candidate achieves
/// VoC ≤ VoC(q) — which the paper proves cannot happen for condensed
/// B/C/D partitions; tests exercise exactly that property.
std::optional<ReduceResult> reduceToArchetypeA(Partition& q,
                                               const Ratio& ratio);

}  // namespace pushpart
