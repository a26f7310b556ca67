// The six candidate optimal partition shapes under Archetype A
// (paper §IX, Figs. 10–12).
//
// All six place R and S as (asymptotically) rectangular regions; they differ
// in which dimensions are pinned to the matrix edge length N:
//
//   Square-Corner (Type 1A)        R and S are squares in opposite corners.
//                                  Feasible iff P_r > 2√(R_r·S_r) (Thm 9.1,
//                                  which reduces to P_r > 2√R_r when S_r = 1).
//   Rectangle-Corner (Type 1B)     Two non-square rectangles in opposite
//                                  corners, combined width ≈ N; the width
//                                  split minimizing combined perimeter is
//                                  x = √R_r / (√R_r + √S_r) (from Eq. 13).
//   Square-Rectangle (Type 3)      R a full-height strip, S a square in a
//                                  corner of the remainder.
//   Block-Rectangle (Type 4)       R and S side by side with equal height in
//                                  a full-width strip (the canonical form of
//                                  Types 2 and 4, §IX-B.2).
//   L-Rectangle (Type 5)           R a full-height strip, S a full-remaining-
//                                  width rectangle at the bottom; P is an L.
//   Traditional-Rectangle (Type 6) R stacked on S in one full-height column
//                                  strip — the classical rectangular
//                                  partition every prior work assumed.
//
// Constructors produce *exact element counts* (the ratio share, as the DFA
// uses): full rows/columns plus one partial edge line, i.e. asymptotically
// rectangular regions. Continuous geometry for the closed-form cost models
// lives in model/closed_form.hpp.
//
// Each shape is written once, as two disjoint edge-aligned bands, one for R
// and one for S. A band is an owner, a lane range, a first line and a
// direction, rows- or columns-first, whether its partial line fills from
// the far lane end (a partial column filled bottom-up), and an element
// count: a stack of full lines plus one partial line. makeCandidate paints
// the bands into a Partition. candidateLines turns the same bands into
// per-owner row and column counts (P takes the rest of each line), stored
// as at most nine runs of equal lines per axis, which is all the models
// read; tier A ranks from those.
#pragma once

#include <array>
#include <string>

#include "grid/line_counts.hpp"
#include "grid/partition.hpp"
#include "grid/ratio.hpp"

namespace pushpart {

enum class CandidateShape {
  kSquareCorner = 0,
  kRectangleCorner = 1,
  kSquareRectangle = 2,
  kBlockRectangle = 3,
  kLRectangle = 4,
  kTraditionalRectangle = 5,
};

inline constexpr int kNumCandidates = 6;

inline constexpr std::array<CandidateShape, kNumCandidates> kAllCandidates = {
    CandidateShape::kSquareCorner,     CandidateShape::kRectangleCorner,
    CandidateShape::kSquareRectangle,  CandidateShape::kBlockRectangle,
    CandidateShape::kLRectangle,       CandidateShape::kTraditionalRectangle,
};

constexpr const char* candidateName(CandidateShape s) {
  switch (s) {
    case CandidateShape::kSquareCorner: return "Square-Corner";
    case CandidateShape::kRectangleCorner: return "Rectangle-Corner";
    case CandidateShape::kSquareRectangle: return "Square-Rectangle";
    case CandidateShape::kBlockRectangle: return "Block-Rectangle";
    case CandidateShape::kLRectangle: return "L-Rectangle";
    case CandidateShape::kTraditionalRectangle: return "Traditional-Rectangle";
  }
  return "?";
}

/// Parses a candidate name (as printed by candidateName, case-sensitive).
/// Throws std::invalid_argument on unknown names.
CandidateShape candidateFromName(const std::string& name);

/// Thm 9.1 feasibility. Square-Corner requires the two squares to fit without
/// sharing rows or columns; every other shape is feasible whenever the grid
/// is large enough to give each processor at least one cell.
bool candidateFeasible(CandidateShape shape, int n, const Ratio& ratio);

/// Builds the canonical partition for `shape` at integer granularity with
/// exact ratio element counts. Throws std::invalid_argument when infeasible
/// (use candidateFeasible to probe).
Partition makeCandidate(CandidateShape shape, int n, const Ratio& ratio);

/// The same shape as makeCandidate, seen only through its line counts:
/// every counter the models read equals the painted grid's. Its four
/// rectangles leave at most nine runs per axis, so time and memory do not
/// grow with N. Throws std::invalid_argument when infeasible.
LineCounts candidateLines(CandidateShape shape, int n, const Ratio& ratio);

/// The optimal corner split for the Rectangle-Corner shape: R's share of the
/// combined corner width, x = √R_r/(√R_r + √S_r), minimizing Eq. 13 along
/// the x + y = 1 boundary.
double rectangleCornerSplit(const Ratio& ratio);

}  // namespace pushpart
