// Axis-aligned integer rectangles (half-open), used for enclosing rectangles.
//
// The Push operation is defined relative to each processor's *enclosing
// rectangle* — the tightest axis-aligned box around its elements (paper §II).
// Rectangles here are half-open: rows [rowBegin, rowEnd), cols [colBegin,
// colEnd); an empty rectangle has rowBegin == rowEnd == colBegin == colEnd == 0.
#pragma once

#include <cstdint>
#include <ostream>

namespace pushpart {

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
