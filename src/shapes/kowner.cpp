#include "shapes/kowner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "support/check.hpp"

namespace pushpart {

namespace {

/// Fills `count` cells of the slow owner into the column band [c0, c1), rows
/// bottom-up within each row sweep, claiming only the fastest owner's cells.
void fillBandRows(Partition& q, Proc slow, int c0, int c1,
                  std::int64_t count) {
  std::int64_t remaining = count;
  for (int i = q.n() - 1; i >= 0 && remaining > 0; --i)
    for (int c = c0; c < c1 && remaining > 0; ++c)
      if (q.at(i, c) == q.fastest()) {
        q.set(i, c, slow);
        --remaining;
      }
  PUSHPART_CHECK_MSG(remaining == 0, "two-proc band too small");
}

/// Column-major fill from the right edge: full n-row columns plus one
/// partial column — the Straight-Line needs its strip columns owned by the
/// slow processor alone, so the partial line must be a column, not a row.
/// Claims only the fastest owner's cells, so successive strips abut.
void fillColumnsFromRight(Partition& q, Proc x, std::int64_t count) {
  std::int64_t remaining = count;
  for (int c = q.n() - 1; c >= 0 && remaining > 0; --c)
    for (int i = q.n() - 1; i >= 0 && remaining > 0; --i)
      if (q.at(i, c) == q.fastest()) {
        q.set(i, c, x);
        --remaining;
      }
  PUSHPART_CHECK_MSG(remaining == 0, "strip too small");
}

}  // namespace

Partition makeTwoProcCandidate(TwoProcShape shape, int n, double p,
                               double aspect) {
  PUSHPART_CHECK_MSG(p >= 1.0, "fast processor must be at least as fast");
  PUSHPART_CHECK(aspect > 0);
  Partition q(n, 2);
  const Proc slowOwner = ownerOfRank(1, 2);
  const double t = p + 1.0;
  const auto n2 = static_cast<std::int64_t>(n) * n;
  const auto slow = static_cast<std::int64_t>(
      std::floor(static_cast<double>(n2) / t));
  PUSHPART_CHECK_MSG(slow > 0, "grid too small for the slow processor");

  switch (shape) {
    case TwoProcShape::kStraightLine: {
      // Full-height strip on the right: full columns plus one partial
      // column, so strip columns are single-owner.
      fillColumnsFromRight(q, slowOwner, slow);
      break;
    }
    case TwoProcShape::kSquareCorner: {
      const int a = std::max(
          1, static_cast<int>(std::llround(std::sqrt(
                 static_cast<double>(slow)))));
      PUSHPART_CHECK_MSG(a <= n, "square does not fit");
      fillBandRows(q, slowOwner, n - a, n, slow);  // bottom-right corner
      break;
    }
    case TwoProcShape::kRectangleCorner: {
      // width/height = aspect, area = slow.
      const double hIdeal = std::sqrt(static_cast<double>(slow) / aspect);
      int h = std::clamp(static_cast<int>(std::llround(hIdeal)), 1, n);
      int w = std::clamp(
          static_cast<int>((slow + h - 1) / h), 1, n);
      while (static_cast<std::int64_t>(w) * h < slow && h < n) {
        ++h;
        w = std::clamp(static_cast<int>((slow + h - 1) / h), 1, n);
      }
      PUSHPART_CHECK_MSG(static_cast<std::int64_t>(w) * h >= slow,
                         "rectangle does not fit");
      // Fill bottom-right w×h box bottom-up.
      std::int64_t remaining = slow;
      for (int i = n - 1; i >= n - h && remaining > 0; --i)
        for (int j = n - w; j < n && remaining > 0; ++j) {
          q.set(i, j, slowOwner);
          --remaining;
        }
      PUSHPART_CHECK(remaining == 0);
      break;
    }
  }
  return q;
}

namespace {

/// Near-square side for `count` cells.
int sideFor(std::int64_t count) {
  return std::max(1, static_cast<int>(std::llround(
                         std::sqrt(static_cast<double>(count)))));
}

/// Fills `count` cells of owner `p` row-major within the given box,
/// scanning rows from `fromBottom` ? bottom-up : top-down, claiming only
/// the fastest owner's cells.
void fillBox(Partition& q, Proc p, int r0, int r1, int c0, int c1,
             bool fromBottom, std::int64_t count) {
  std::int64_t remaining = count;
  const auto visit = [&](int i) {
    for (int j = c0; j < c1 && remaining > 0; ++j)
      if (q.at(i, j) == q.fastest()) {
        q.set(i, j, p);
        --remaining;
      }
  };
  if (fromBottom) {
    for (int i = r1 - 1; i >= r0 && remaining > 0; --i) visit(i);
  } else {
    for (int i = r0; i < r1 && remaining > 0; ++i) visit(i);
  }
  PUSHPART_CHECK_MSG(remaining == 0, "four-proc box too small");
}

/// The slow owners of a four-owner partition in speed order.
constexpr std::array<Proc, 3> kFourSlow = {
    ownerOfRank(1, 4), ownerOfRank(2, 4), ownerOfRank(3, 4)};

}  // namespace

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
      const int a1 = sideFor(slow[0]);
      const int a2 = sideFor(slow[1]);
      const int a3 = sideFor(slow[2]);
      const auto h1 = (slow[0] + a1 - 1) / a1;
      const auto h2 = (slow[1] + a2 - 1) / a2;
      const auto h3 = (slow[2] + a3 - 1) / a3;
      return a1 + a2 <= n &&            // 1 and 2 share the top rows
             h1 + h3 <= n &&            // 1 and 3 share the left columns
             a3 <= n && h2 <= n;
    }
    case FourProcShape::kBlockColumns:
    case FourProcShape::kColumnStrips: {
      std::int64_t widths = 0;
      for (const std::int64_t c : slow) widths += (c + n - 1) / n;
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

  switch (shape) {
    case FourProcShape::kCornerSquares: {
      const auto [p1, p2, p3] = kFourSlow;
      const int a1 = sideFor(countOf(p1));
      const int a2 = sideFor(countOf(p2));
      const int a3 = sideFor(countOf(p3));
      fillBox(q, p1, 0, n, 0, a1, /*fromBottom=*/false, countOf(p1));
      fillBox(q, p2, 0, n, n - a2, n, /*fromBottom=*/false, countOf(p2));
      fillBox(q, p3, 0, n, 0, a3, /*fromBottom=*/true, countOf(p3));
      break;
    }
    case FourProcShape::kBlockColumns: {
      // Full-width bottom strip split into three bottom-aligned bands, lane
      // boundaries proportional to the counts (the k = 4 Block-Rectangle).
      std::int64_t slowTotal = 0;
      for (const Proc p : kFourSlow) slowTotal += countOf(p);
      int c0 = 0;
      std::int64_t assigned = 0;
      for (std::size_t r = 0; r < kFourSlow.size(); ++r) {
        const Proc p = kFourSlow[r];
        std::int64_t c1w;
        if (r + 1 == kFourSlow.size()) {
          c1w = n - c0;
        } else {
          assigned += countOf(p);
          const auto target = static_cast<std::int64_t>(std::llround(
              static_cast<double>(n) * static_cast<double>(assigned) /
              static_cast<double>(slowTotal)));
          c1w = std::max<std::int64_t>(target - c0, 1);
        }
        const int c1 = std::min(n, c0 + static_cast<int>(c1w));
        fillBox(q, p, 0, n, c0, c1, /*fromBottom=*/true, countOf(p));
        c0 = c1;
      }
      break;
    }
    case FourProcShape::kColumnStrips: {
      // Slow owners take full-height strips from the right; the fastest
      // keeps the left block. Column-major right-to-left fills claim only
      // free cells, so each strip starts where the previous one ended and
      // strip columns stay (almost) single-owner.
      for (const Proc p : kFourSlow) fillColumnsFromRight(q, p, countOf(p));
      break;
    }
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
