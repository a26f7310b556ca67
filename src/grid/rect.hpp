// Axis-aligned integer rectangles (half-open), used for enclosing rectangles
// and for the boxes the builders claim cells in, plus the two integer
// helpers that size those boxes.
//
// The Push operation is defined relative to each processor's *enclosing
// rectangle* — the tightest axis-aligned box around its elements (paper §II).
// Rectangles here are half-open: rows [rowBegin, rowEnd), cols [colBegin,
// colEnd); an empty rectangle has rowBegin == rowEnd == colBegin == colEnd == 0.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>

namespace pushpart {

/// ⌈a / b⌉ for a ≥ 0 and b > 0: the lines of b cells that hold a cells.
constexpr std::int64_t ceilDiv(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Side of the near-square holding `count` cells: √count rounded, at least 1.
inline int squareSide(std::int64_t count) {
  return std::max(1, static_cast<int>(std::llround(
                         std::sqrt(static_cast<double>(count)))));
}

struct Rect {
  int rowBegin = 0;
  int rowEnd = 0;
  int colBegin = 0;
  int colEnd = 0;

  static Rect empty() { return {}; }

  bool isEmpty() const { return rowBegin >= rowEnd || colBegin >= colEnd; }

  int height() const { return isEmpty() ? 0 : rowEnd - rowBegin; }
  int width() const { return isEmpty() ? 0 : colEnd - colBegin; }
  std::int64_t area() const {
    return static_cast<std::int64_t>(height()) * width();
  }

  bool contains(int i, int j) const {
    return i >= rowBegin && i < rowEnd && j >= colBegin && j < colEnd;
  }

  /// True when `inner` lies entirely within *this. Empty rects are contained
  /// in everything.
  bool contains(const Rect& inner) const {
    if (inner.isEmpty()) return true;
    if (isEmpty()) return false;
    return inner.rowBegin >= rowBegin && inner.rowEnd <= rowEnd &&
           inner.colBegin >= colBegin && inner.colEnd <= colEnd;
  }

  /// True when the two rectangles share at least one cell.
  bool overlaps(const Rect& o) const {
    if (isEmpty() || o.isEmpty()) return false;
    return rowBegin < o.rowEnd && o.rowBegin < rowEnd && colBegin < o.colEnd &&
           o.colBegin < colEnd;
  }

  friend bool operator==(const Rect&, const Rect&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const Rect& r) {
  return os << "[rows " << r.rowBegin << ".." << r.rowEnd << ") x [cols "
            << r.colBegin << ".." << r.colEnd << ")";
}

}  // namespace pushpart
