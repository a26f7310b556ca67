#include "shapes/kowner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "support/check.hpp"

namespace pushpart {

namespace {

/// Column-major from the right edge, each column bottom-up: full n-row
/// columns plus one partial column. The Straight-Line needs its strip
/// columns owned by the slow processor alone, so the partial line must be a
/// column, not a row; claiming only the fastest owner's cells lets
/// successive strips abut.
constexpr ClaimOrder kColumnsFromRight = {
    .columns = true, .reverseLines = true, .reverseCells = true};

/// The slow owner's floored share of the n×n grid at speed ratio p : 1.
std::int64_t twoProcSlowCount(int n, double p) {
  const auto n2 = static_cast<std::int64_t>(n) * n;
  return static_cast<std::int64_t>(
      std::floor(static_cast<double>(n2) / (p + 1.0)));
}

/// The slow owners of a four-owner partition in speed order.
constexpr std::array<Proc, 3> kFourSlow = {
    ownerOfRank(1, 4), ownerOfRank(2, 4), ownerOfRank(3, 4)};

}  // namespace

Partition makeTwoProcCandidate(TwoProcShape shape, int n, double p,
                               double aspect) {
  PUSHPART_CHECK_MSG(p >= 1.0, "fast processor must be at least as fast");
  PUSHPART_CHECK(aspect > 0);
  Partition q(n, 2);
  const std::int64_t slow = twoProcSlowCount(n, p);
  PUSHPART_CHECK_MSG(slow > 0, "grid too small for the slow processor");

  // Both corner shapes fill a bottom-right box row by row, bottom-up.
  Rect box{0, n, 0, n};
  ClaimOrder order{.reverseLines = true};
  switch (shape) {
    case TwoProcShape::kStraightLine:
      // Full-height strip on the right: full columns plus one partial
      // column, so strip columns are single-owner.
      order = kColumnsFromRight;
      break;
    case TwoProcShape::kSquareCorner: {
      const int a = squareSide(slow);
      PUSHPART_CHECK_MSG(a <= n, "square does not fit");
      box.colBegin = n - a;
      break;
    }
    case TwoProcShape::kRectangleCorner: {
      // width/height = aspect, area = slow.
      const double hIdeal = std::sqrt(static_cast<double>(slow) / aspect);
      int h = std::clamp(static_cast<int>(std::llround(hIdeal)), 1, n);
      int w = std::clamp(static_cast<int>(ceilDiv(slow, h)), 1, n);
      while (static_cast<std::int64_t>(w) * h < slow && h < n) {
        ++h;
        w = std::clamp(static_cast<int>(ceilDiv(slow, h)), 1, n);
      }
      PUSHPART_CHECK_MSG(static_cast<std::int64_t>(w) * h >= slow,
                         "rectangle does not fit");
      box = Rect{n - h, n, n - w, n};
      break;
    }
  }
  PUSHPART_CHECK_MSG(
      q.claim(box, q.fastest(), ownerOfRank(1, 2), slow, order) == slow,
      "two-proc box too small");
  return q;
}

bool twoProcFeasible(int n, double p) {
  return n > 0 && p >= 1.0 && twoProcSlowCount(n, p) > 0;
}

bool fourProcFeasible(FourProcShape shape, int n, const NSpeeds& speeds) {
  if (speeds.owners() != 4 || !speeds.valid() || n <= 0) return false;
  const auto counts = speeds.elementCounts(n);
  std::array<std::int64_t, 3> slow{};
  for (std::size_t r = 0; r < 3; ++r) {
    slow[r] = counts[procSlot(kFourSlow[r])];
    if (slow[r] <= 0) return false;
  }

  switch (shape) {
    case FourProcShape::kCornerSquares: {
      // Squares at top-left (the fastest slow owner), top-right (the next),
      // bottom-left (the slowest). Corner-adjacent pairs must not share
      // rows/columns.
      const int a1 = squareSide(slow[0]);
      const int a2 = squareSide(slow[1]);
      const int a3 = squareSide(slow[2]);
      const auto h1 = ceilDiv(slow[0], a1);
      const auto h2 = ceilDiv(slow[1], a2);
      const auto h3 = ceilDiv(slow[2], a3);
      return a1 + a2 <= n &&            // 1 and 2 share the top rows
             h1 + h3 <= n &&            // 1 and 3 share the left columns
             a3 <= n && h2 <= n;
    }
    case FourProcShape::kBlockColumns:
    case FourProcShape::kColumnStrips: {
      std::int64_t widths = 0;
      for (const std::int64_t c : slow) widths += ceilDiv(c, n);
      return widths <= n;
    }
  }
  return false;
}

Partition makeFourProcCandidate(FourProcShape shape, int n,
                                const NSpeeds& speeds) {
  if (!fourProcFeasible(shape, n, speeds))
    throw std::invalid_argument(std::string(fourProcShapeName(shape)) +
                                " infeasible for n=" + std::to_string(n) +
                                " speeds " + speeds.str());
  const auto counts = speeds.elementCounts(n);
  const auto countOf = [&](Proc p) { return counts[procSlot(p)]; };
  Partition q(n, 4);
  const auto claimBox = [&](Proc p, const Rect& box, ClaimOrder order) {
    PUSHPART_CHECK_MSG(
        q.claim(box, q.fastest(), p, countOf(p), order) == countOf(p),
        "four-proc box too small");
  };

  switch (shape) {
    case FourProcShape::kCornerSquares: {
      const auto [p1, p2, p3] = kFourSlow;
      claimBox(p1, Rect{0, n, 0, squareSide(countOf(p1))}, {});
      claimBox(p2, Rect{0, n, n - squareSide(countOf(p2)), n}, {});
      claimBox(p3, Rect{0, n, 0, squareSide(countOf(p3))},
               {.reverseLines = true});
      break;
    }
    case FourProcShape::kBlockColumns: {
      // Full-width bottom strip split into three bottom-aligned bands, lane
      // boundaries proportional to the counts (the k = 4 Block-Rectangle).
      // Each lane end is clamped so that its owner and every later one keep
      // the ⌈count/n⌉ lanes their counts need.
      std::int64_t slowTotal = 0, laterLanes = 0;
      for (const Proc p : kFourSlow) {
        slowTotal += countOf(p);
        laterLanes += ceilDiv(countOf(p), n);
      }
      int c0 = 0;
      std::int64_t assigned = 0;
      for (const Proc p : kFourSlow) {
        assigned += countOf(p);
        laterLanes -= ceilDiv(countOf(p), n);
        const auto target = static_cast<std::int64_t>(std::llround(
            static_cast<double>(n) * static_cast<double>(assigned) /
            static_cast<double>(slowTotal)));
        const int c1 = static_cast<int>(std::clamp(
            target, c0 + ceilDiv(countOf(p), n), n - laterLanes));
        claimBox(p, Rect{0, n, c0, c1}, {.reverseLines = true});
        c0 = c1;
      }
      break;
    }
    case FourProcShape::kColumnStrips:
      // Slow owners take full-height strips from the right; the fastest
      // keeps the left block. Each strip starts where the previous one
      // ended, and strip columns stay (almost) single-owner.
      for (const Proc p : kFourSlow)
        claimBox(p, Rect{0, n, 0, n}, kColumnsFromRight);
      break;
  }
  return q;
}

double twoProcClosedFormVoC(TwoProcShape shape, double p, double aspect) {
  PUSHPART_CHECK(p >= 1.0);
  const double t = p + 1.0;
  const double share = 1.0 / t;
  switch (shape) {
    case TwoProcShape::kStraightLine:
      return 1.0;  // every row carries both owners; columns are private
    case TwoProcShape::kSquareCorner:
      return 2.0 * std::sqrt(share);
    case TwoProcShape::kRectangleCorner: {
      // Rows cost h only while the rectangle leaves room beside it (w < 1);
      // a full-width rectangle's rows are single-owner, and symmetrically
      // for columns — the degenerate cases collapse to straight lines.
      const double h = std::min(1.0, std::sqrt(share / aspect));
      const double w = std::min(1.0, aspect * h);
      double voc = 0.0;
      if (w < 1.0) voc += h;
      if (h < 1.0) voc += w;
      return voc;
    }
  }
  return 0.0;
}

}  // namespace pushpart
