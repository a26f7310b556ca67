#include "exec/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "exec/kernels.hpp"
#include "support/check.hpp"

namespace pushpart {

Matrix randomMatrix(int n, Rng& rng) {
  Matrix m(n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) m.at(i, j) = 2.0 * rng.real() - 1.0;
  return m;
}

namespace {

/// Rows [rowBegin, rowEnd) of C += A·B.
void multiplyRows(const Matrix& a, const Matrix& b, Matrix& c, int rowBegin,
                  int rowEnd) {
  const int n = a.n();
  // kij order: pivot k outermost, exactly the paper's Fig. 1 schedule.
  for (int k = 0; k < n; ++k)
    for (int i = rowBegin; i < rowEnd; ++i) {
      const double aik = a.at(i, k);
      for (int j = 0; j < n; ++j) c.at(i, j) += aik * b.at(k, j);
    }
}

/// Rows of the reference's register block of C. Each build's block is two
/// vectors wide, and B's panel as wide as the block.
constexpr std::size_t kRefRows = 4;

/// Columns [colBegin, colEnd) of C = A·B, over all rows, with C held in
/// registers: each kRefRows × 2·Lanes block of C sums all n pivots in
/// 2·kRefRows vector accumulators, reading A's rows in place and B's columns
/// from a panel packed pivot-major once per panel, zero-padded past colEnd;
/// only the block's columns below colEnd are stored. The last n mod kRefRows
/// rows take a one-row loop on the same panel. Every element sums
/// a(i,k)·b(k,j) over ascending k from 0.0, as multiplySerial does, so the
/// columns equal its bit for bit. Every entry below inlines this one body at
/// its build's vector width.
template <std::size_t Lanes>
[[gnu::always_inline]] inline void referenceColumnsBody(const Matrix& a,
                                                        const Matrix& b,
                                                        Matrix& c,
                                                        int colBegin,
                                                        int colEnd) {
  using V = kernels::Vec<Lanes>;
  constexpr std::size_t kCols = 2 * Lanes;
  static_assert(kernels::kReferenceChunkCols % kCols == 0);
  const auto n = static_cast<std::size_t>(a.n());
  const auto col0 = static_cast<std::size_t>(colBegin);
  const auto col1 = static_cast<std::size_t>(colEnd);
  const std::size_t blockRowsEnd = n / kRefRows * kRefRows;
  const double* aData = a.data();
  const double* bData = b.data();
  double* cData = c.data();
  // panel[k·kCols + x] = B(k, j + x) for the current panel's first column j.
  std::vector<double> panel(n * kCols);
  const double* bp = panel.data();
  for (std::size_t j = col0; j < col1; j += kCols) {
    const std::size_t cols = std::min(kCols, col1 - j);
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t x = 0; x < kCols; ++x)
        panel[k * kCols + x] = x < cols ? bData[k * n + j + x] : 0.0;
    // One block row on its way to C. A block's accumulators leave through
    // locals, never addressed in place: GCC then keeps them in registers.
    double row[kCols];
    std::size_t i = 0;
    for (; i < blockRowsEnd; i += kRefRows) {
      const double* ai = aData + i * n;
      V lo[kRefRows] = {};
      V hi[kRefRows] = {};
      for (std::size_t k = 0; k < n; ++k) {
        V bLo, bHi;
        std::memcpy(&bLo, bp + k * kCols, sizeof bLo);
        std::memcpy(&bHi, bp + k * kCols + Lanes, sizeof bHi);
        for (std::size_t r = 0; r < kRefRows; ++r) {
          const double aik = ai[r * n + k];
          lo[r] += aik * bLo;
          hi[r] += aik * bHi;
        }
      }
      for (std::size_t r = 0; r < kRefRows; ++r) {
        const V rowLo = lo[r];
        const V rowHi = hi[r];
        std::memcpy(row, &rowLo, sizeof rowLo);
        std::memcpy(row + Lanes, &rowHi, sizeof rowHi);
        std::copy_n(row, cols, cData + (i + r) * n + j);
      }
    }
    for (; i < n; ++i) {
      const double* ai = aData + i * n;
      V lo = {};
      V hi = {};
      for (std::size_t k = 0; k < n; ++k) {
        V bLo, bHi;
        std::memcpy(&bLo, bp + k * kCols, sizeof bLo);
        std::memcpy(&bHi, bp + k * kCols + Lanes, sizeof bHi);
        lo += ai[k] * bLo;
        hi += ai[k] * bHi;
      }
      std::memcpy(row, &lo, sizeof lo);
      std::memcpy(row + Lanes, &hi, sizeof hi);
      std::copy_n(row, cols, cData + i * n + j);
    }
  }
}

}  // namespace

void kernels::referenceColumnsBaseline(const Matrix& a, const Matrix& b,
                                       Matrix& c, int colBegin, int colEnd) {
  referenceColumnsBody<2>(a, b, c, colBegin, colEnd);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void kernels::referenceColumnsAvx2(const Matrix& a,
                                                           const Matrix& b,
                                                           Matrix& c,
                                                           int colBegin,
                                                           int colEnd) {
  referenceColumnsBody<4>(a, b, c, colBegin, colEnd);
}

[[gnu::target("avx512f")]] void kernels::referenceColumnsAvx512f(
    const Matrix& a, const Matrix& b, Matrix& c, int colBegin, int colEnd) {
  referenceColumnsBody<8>(a, b, c, colBegin, colEnd);
}
#endif

Matrix multiplySerial(const Matrix& a, const Matrix& b) {
  PUSHPART_CHECK(a.n() == b.n());
  Matrix c(a.n(), 0.0);
  multiplyRows(a, b, c, 0, a.n());
  return c;
}

double maxAbsDiff(const Matrix& x, const Matrix& y) {
  PUSHPART_CHECK(x.n() == y.n());
  double worst = 0.0;
  for (int i = 0; i < x.n(); ++i)
    for (int j = 0; j < x.n(); ++j) {
      const double d = std::fabs(x.at(i, j) - y.at(i, j));
      // std::max(worst, NaN) keeps worst, which would read a NaN as a match.
      if (std::isnan(d)) return d;
      worst = std::max(worst, d);
    }
  return worst;
}

}  // namespace pushpart
