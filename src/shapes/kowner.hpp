// Two- and four-owner candidate shapes (owner ids as in grid/proc.hpp: the
// slow owners 0..k−2 in speed order, the fastest k−1).
//
// Two processors are the prior-work baseline the paper builds on (its
// reference [8], summarized in §II). That study proved three condensed shape
// families and two headline results this module makes executable against the
// push engine:
//
//   * Straight-Line: the slow processor takes a full-height strip.
//     Normalized VoC = 1 (every row has both owners; columns are private).
//   * Square-Corner: the slow processor takes a corner square of side
//     a = √(1/T). Normalized VoC = 2a = 2/√T.
//   * Rectangle-Corner: a non-square w×h corner rectangle, VoC = w + h —
//     always at least the Square-Corner's by AM–GM, which is the paper's
//     "Rectangle-Corner always inferior" result.
//
// Square-Corner beats Straight-Line iff 2/√T < 1 ⇔ T > 4 ⇔ P_r > 3 —
// the 3:1 crossover quoted throughout the paper. Tests validate both facts
// on grids built here.
#pragma once

#include "grid/partition.hpp"
#include "grid/ratio.hpp"

namespace pushpart {

enum class TwoProcShape {
  kStraightLine = 0,
  kSquareCorner = 1,
  kRectangleCorner = 2,
};

constexpr const char* twoProcShapeName(TwoProcShape s) {
  switch (s) {
    case TwoProcShape::kStraightLine: return "Straight-Line";
    case TwoProcShape::kSquareCorner: return "Square-Corner";
    case TwoProcShape::kRectangleCorner: return "Rectangle-Corner";
  }
  return "?";
}

/// Builds the canonical two-owner partition on an n×n grid for speed ratio
/// p : 1 (owner 1 fast, owner 0 slow). The Rectangle-Corner uses aspect
/// ratio `aspect` (width/height, must be > 0; 1 degenerates to the
/// Square-Corner). Exact element counts; asymptotically rectangular.
Partition makeTwoProcCandidate(TwoProcShape shape, int n, double p,
                               double aspect = 2.0);

/// Normalized closed-form VoC (VoC / N²) of the canonical two-processor
/// shapes; the Rectangle-Corner takes the same `aspect` parameter.
double twoProcClosedFormVoC(TwoProcShape shape, double p, double aspect = 2.0);

/// The classical crossover: the Square-Corner beats the Straight-Line for
/// P_r above this value (= 3, from 2/√(P_r+1) < 1).
constexpr double kTwoProcCrossover = 3.0;

// --- Four-processor candidate shapes (extension of the paper's program) ---
//
// The paper stops at three processors; these are the natural k = 4
// generalizations of its Archetype A family, used to test the weak form of
// Postulate 1 beyond k = 3: condensation search outputs should never
// communicate less than the best of these.

enum class FourProcShape {
  /// The three slow owners take squares in three corners of the matrix
  /// (the Square-Corner generalization). Feasible when adjacent squares
  /// share no rows/columns: side_i + side_j ≤ n for corner-adjacent pairs.
  kCornerSquares = 0,
  /// The three slow owners split a full-width bottom strip side by side
  /// (the Block-Rectangle generalization). Feasible when the slow owners'
  /// ⌈count/n⌉ columns fit side by side; each lane is at least that wide.
  kBlockColumns = 1,
  /// All four owners as full-height column strips — the classical 1-D
  /// rectangular partition. Feasible under the same column condition.
  kColumnStrips = 2,
};

constexpr const char* fourProcShapeName(FourProcShape s) {
  switch (s) {
    case FourProcShape::kCornerSquares: return "Corner-Squares";
    case FourProcShape::kBlockColumns: return "Block-Columns";
    case FourProcShape::kColumnStrips: return "Column-Strips";
  }
  return "?";
}

/// Feasibility of the k = 4 candidate at integer granularity. `speeds` must
/// have exactly four entries.
bool fourProcFeasible(FourProcShape shape, int n, const NSpeeds& speeds);

/// Builds the four-owner candidate with exact element counts. Throws
/// std::invalid_argument when infeasible.
Partition makeFourProcCandidate(FourProcShape shape, int n,
                                const NSpeeds& speeds);

}  // namespace pushpart
