#include "shapes/candidates.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/check.hpp"

namespace pushpart {

namespace {

/// One edge-aligned band: `count` cells of `owner` laid line by line — rows
/// when `rowsFirst`, else columns — from line `line0` stepping by `dir`
/// (+1 or −1), each line spanning lanes [lane0, lane1) of the other axis.
/// Every line is full except the last, which holds the remainder at the
/// lane0 end, or at the lane1 end when `fromLaneEnd`: a stack of full lines
/// plus one partial line, an asymptotically rectangular region with an
/// exact element count. A shape's two bands are disjoint, so each band
/// alone fixes the cells its owner takes from P.
struct Band {
  Proc owner;
  bool rowsFirst;
  int lane0, lane1;
  int line0, dir;
  bool fromLaneEnd;
  std::int64_t count;
};

/// Rows [r0 advancing by dr] × cols [c0, c1), each row left to right.
Band rowsBand(Proc x, int c0, int c1, int r0, int dr, std::int64_t count) {
  return {.owner = x, .rowsFirst = true, .lane0 = c0, .lane1 = c1,
          .line0 = r0, .dir = dr, .fromLaneEnd = false, .count = count};
}

/// Column-major variant: full columns plus one partial column. `fromBottom`
/// fills each column upward so the partial column's cells hug the bottom
/// edge — needed by the full-height-strip shapes, whose slack must land in
/// rows that already carry P (otherwise every row the slack touches gains a
/// third owner and the shape's VoC leaves its closed form).
Band colsBand(Proc x, int r0, int r1, int c0, int dc, std::int64_t count,
              bool fromBottom = false) {
  return {.owner = x, .rowsFirst = false, .lane0 = r0, .lane1 = r1,
          .line0 = c0, .dir = dc, .fromLaneEnd = fromBottom, .count = count};
}

/// The band's cells as two rectangles: its full lines, then its partial
/// line (empty when the count fills whole lines).
std::array<Rect, 2> bandRects(const Band& b, int n) {
  const int width = b.lane1 - b.lane0;
  const int room = b.dir > 0 ? n - b.line0 : b.line0 + 1;
  PUSHPART_CHECK_MSG(width > 0 && room > 0 &&
                         b.count <= static_cast<std::int64_t>(width) * room,
                     "band too small for " << procName(b.owner) << ": "
                                           << b.count << " cells, " << room
                                           << " lines of " << width);
  const auto full = static_cast<int>(b.count / width);
  const auto rem = static_cast<int>(b.count % width);
  // Full lines [first, first + full); the partial line is the next one on.
  const int first = b.dir > 0 ? b.line0 : b.line0 - full + 1;
  const int partial = b.dir > 0 ? first + full : first - 1;
  const int partialLane = b.fromLaneEnd ? b.lane1 - rem : b.lane0;
  const auto block = [&](int line0, int line1, int lane0, int lane1) {
    return b.rowsFirst ? Rect{line0, line1, lane0, lane1}
                       : Rect{lane0, lane1, line0, line1};
  };
  return {block(first, first + full, b.lane0, b.lane1),
          rem > 0 ? block(partial, partial + 1, partialLane, partialLane + rem)
                  : Rect::empty()};
}

/// Lane boundary splitting n lanes between R (lanes [0, boundary)) and S
/// (lanes [boundary, n)) in proportion to their element counts, clamped so
/// each side can hold its elements within n cells per lane. Used by the
/// Block- and Traditional-Rectangle constructions, which then fill each side
/// as an independent edge-aligned band (the two bands' depths differ by at
/// most ~1, the integer version of the canonical "equal heights").
int proportionalBoundary(int n, std::int64_t eR, std::int64_t eS) {
  const auto lo = ceilDiv(eR, n);
  const auto hi = static_cast<std::int64_t>(n) - ceilDiv(eS, n);
  PUSHPART_CHECK_MSG(lo <= hi, "bands do not fit: n=" << n);
  const auto want = static_cast<std::int64_t>(
      std::llround(static_cast<double>(n) * static_cast<double>(eR) /
                   static_cast<double>(eR + eS)));
  return static_cast<int>(std::clamp(want, lo, hi));
}

struct Counts {
  std::int64_t eR;
  std::int64_t eS;
};

Counts countsFor(int n, const Ratio& ratio) {
  const auto c = ratio.elementCounts(n);
  return {c[procSlot(Proc::R)], c[procSlot(Proc::S)]};
}

/// Rectangle-Corner widths after clamping to heights that fit the matrix.
struct CornerWidths {
  int wR;
  int wS;
  bool feasible;
};

CornerWidths rectangleCornerWidths(int n, const Counts& e) {
  const auto minWR = static_cast<int>(ceilDiv(e.eR, n));
  const auto minWS = static_cast<int>(ceilDiv(e.eS, n));
  if (minWR + minWS > n) return {0, 0, false};
  const Ratio probe{1, static_cast<double>(e.eR), static_cast<double>(e.eS)};
  // Split the full width so combined perimeter is minimal (Eq. 13 boundary
  // optimum), then clamp so both heights fit.
  int wR = static_cast<int>(std::llround(rectangleCornerSplit(probe) * n));
  wR = std::clamp(wR, minWR, n - minWS);
  wR = std::max(wR, 1);
  return {wR, n - wR, true};
}

/// The one description of each shape's geometry: its two bands.
std::array<Band, 2> shapeBands(CandidateShape shape, int n,
                               const Counts& e) {
  switch (shape) {
    case CandidateShape::kSquareCorner: {
      // R square in the top-left corner, S square in the bottom-right:
      // no shared rows or columns (Fig. 11 left).
      const int aR = squareSide(e.eR);
      const int aS = squareSide(e.eS);
      return {rowsBand(Proc::R, 0, aR, 0, +1, e.eR),
              rowsBand(Proc::S, n - aS, n, n - 1, -1, e.eS)};
    }
    case CandidateShape::kRectangleCorner: {
      // Two non-square rectangles in opposite corners whose widths split the
      // full edge (Fig. 11 right); rows may interleave, columns are disjoint.
      const CornerWidths w = rectangleCornerWidths(n, e);
      return {rowsBand(Proc::R, 0, w.wR, 0, +1, e.eR),
              rowsBand(Proc::S, n - w.wS, n, n - 1, -1, e.eS)};
    }
    case CandidateShape::kSquareRectangle: {
      // R a full-height strip on the left, S a square in the bottom-right.
      // The strip's partial column fills bottom-up so its P-slack stays in
      // rows that already carry P.
      const int aS = squareSide(e.eS);
      return {colsBand(Proc::R, 0, n, 0, +1, e.eR, /*fromBottom=*/true),
              rowsBand(Proc::S, n - aS, n, n - 1, -1, e.eS)};
    }
    case CandidateShape::kBlockRectangle: {
      // Full-width bottom strip shared by R (left) and S (right) — the
      // canonical Type 4 with (near-)equal heights. Each side is an
      // independent bottom-aligned band; slack stays in each band's own
      // partial top row, so measured VoC tracks the closed form to O(1/n).
      const int cb = proportionalBoundary(n, e.eR, e.eS);
      return {rowsBand(Proc::R, 0, cb, n - 1, -1, e.eR),
              rowsBand(Proc::S, cb, n, n - 1, -1, e.eS)};
    }
    case CandidateShape::kLRectangle: {
      // R a full-height strip on the left (partial column bottom-up, slack
      // against P's rows), S spanning the remaining width at the bottom;
      // P keeps the L-shaped top-right remainder.
      const auto wR = static_cast<int>(ceilDiv(e.eR, n));
      return {colsBand(Proc::R, 0, n, 0, +1, e.eR, /*fromBottom=*/true),
              rowsBand(Proc::S, wR, n, n - 1, -1, e.eS)};
    }
    case CandidateShape::kTraditionalRectangle: {
      // One (near-)uniform-width column strip on the right holding R above
      // S — the classical all-rectangles partition. Transpose of the Block
      // construction: a row boundary splits the matrix; each side is an
      // independent right-aligned band whose slack stays in its own partial
      // leftmost column.
      const int rb = proportionalBoundary(n, e.eR, e.eS);
      return {colsBand(Proc::R, 0, rb, n - 1, -1, e.eR),
              colsBand(Proc::S, rb, n, n - 1, -1, e.eS)};
    }
  }
  throw std::invalid_argument("unknown candidate shape");
}

struct OwnedRect {
  Proc owner;
  Rect rect;
};

/// Every cell the shape gives R or S, as four rectangles (each band's full
/// lines and partial line); P owns the rest. Checked to lie inside the grid
/// and to be disjoint, which both builders below rely on.
std::array<OwnedRect, 4> shapeRects(CandidateShape shape, int n,
                                    const Ratio& ratio) {
  if (!candidateFeasible(shape, n, ratio))
    throw std::invalid_argument(std::string(candidateName(shape)) +
                                " infeasible for n=" + std::to_string(n) +
                                " ratio " + ratio.str());
  const auto bands = shapeBands(shape, n, countsFor(n, ratio));
  const auto r0 = bandRects(bands[0], n);
  const auto r1 = bandRects(bands[1], n);
  const std::array<OwnedRect, 4> out = {{{bands[0].owner, r0[0]},
                                         {bands[0].owner, r0[1]},
                                         {bands[1].owner, r1[0]},
                                         {bands[1].owner, r1[1]}}};
  const Rect grid{0, n, 0, n};
  for (const OwnedRect& a : out) {
    PUSHPART_CHECK_MSG(grid.contains(a.rect),
                       candidateName(shape) << ": " << a.rect
                                            << " leaves the grid");
    for (const OwnedRect& b : out)
      PUSHPART_CHECK_MSG(&a == &b || !a.rect.overlaps(b.rect),
                         candidateName(shape) << ": bands overlap");
  }
  return out;
}

}  // namespace

double rectangleCornerSplit(const Ratio& ratio) {
  const double sr = std::sqrt(ratio.r);
  const double ss = std::sqrt(ratio.s);
  return sr / (sr + ss);
}

CandidateShape candidateFromName(const std::string& name) {
  for (CandidateShape s : kAllCandidates)
    if (name == candidateName(s)) return s;
  throw std::invalid_argument("unknown candidate shape '" + name + "'");
}

bool candidateFeasible(CandidateShape shape, int n, const Ratio& ratio) {
  if (n <= 0 || !ratio.valid()) return false;
  const Counts e = countsFor(n, ratio);
  if (e.eR <= 0 || e.eS <= 0) return false;

  switch (shape) {
    case CandidateShape::kSquareCorner: {
      const int aR = squareSide(e.eR);
      const int aS = squareSide(e.eS);
      const auto hR = ceilDiv(e.eR, aR);
      const auto hS = ceilDiv(e.eS, aS);
      // Thm 9.1 at integer granularity: disjoint columns and rows.
      return aR + aS <= n && hR + hS <= n;
    }
    case CandidateShape::kRectangleCorner:
      return rectangleCornerWidths(n, e).feasible;
    case CandidateShape::kSquareRectangle: {
      const auto wR = ceilDiv(e.eR, n);
      const int aS = squareSide(e.eS);
      return wR + aS <= n && ceilDiv(e.eS, aS) <= n;
    }
    case CandidateShape::kBlockRectangle:
      return ceilDiv(e.eR, n) + ceilDiv(e.eS, n) <= n;
    case CandidateShape::kLRectangle: {
      const auto wR = ceilDiv(e.eR, n);
      return wR < n && ceilDiv(e.eS, n - wR) <= n;
    }
    case CandidateShape::kTraditionalRectangle:
      return ceilDiv(e.eR, n) + ceilDiv(e.eS, n) <= n;
  }
  return false;
}

Partition makeCandidate(CandidateShape shape, int n, const Ratio& ratio) {
  Partition q(n, Proc::P);
  for (const auto& [owner, r] : shapeRects(shape, n, ratio))
    q.claim(r, Proc::P, owner, r.area());
  return q;
}

LineCounts candidateLines(CandidateShape shape, int n, const Ratio& ratio) {
  LineCounts lines(n);
  for (const auto& [owner, r] : shapeRects(shape, n, ratio))
    lines.assign(r, owner);
  return lines;
}

}  // namespace pushpart
