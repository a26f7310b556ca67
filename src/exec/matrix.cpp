#include "exec/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <thread>
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

/// Side of the reference's register block, and width of its B panel.
constexpr std::size_t kBlock = 4;

/// acc += A(i.., k)·B(k, j..) for pivots [k0, k1) of one kBlock × kBlock
/// block: `ai` points at the block's first row of A (rows n apart), `bp` at
/// the packed panel. A function rather than a lambda, so that it can be
/// always_inline into both entries' builds.
[[gnu::always_inline]] inline void addPivots(double (&acc)[kBlock][kBlock],
                                             const double* ai,
                                             const double* bp, std::size_t n,
                                             std::size_t k0, std::size_t k1) {
  for (std::size_t k = k0; k < k1; ++k)
    for (std::size_t r = 0; r < kBlock; ++r) {
      const double aik = ai[r * n + k];
      for (std::size_t x = 0; x < kBlock; ++x)
        acc[r][x] += aik * bp[k * kBlock + x];
    }
}

/// Rows [rowBegin, rowEnd) of C = A·B with C held in registers: each
/// kBlock × kBlock block of C sums all n pivots in 16 accumulators, reading
/// A's rows in place and B's columns from a kBlock-wide panel packed
/// pivot-major, once per panel. Leftover rows take a 1 × kBlock loop on the
/// same panel and the last n mod kBlock columns a scalar loop. Every element
/// sums a(i,k)·b(k,j) over ascending k from 0.0, as multiplySerial does,
/// so the rows equal its bit for bit. Both entries below inline this one
/// body.
[[gnu::always_inline]] inline void referenceRowsBody(const Matrix& a,
                                                     const Matrix& b,
                                                     Matrix& c, int rowBegin,
                                                     int rowEnd) {
  const auto n = static_cast<std::size_t>(a.n());
  const auto row0 = static_cast<std::size_t>(rowBegin);
  const auto row1 = static_cast<std::size_t>(rowEnd);
  const std::size_t blockRowsEnd = row0 + (row1 - row0) / kBlock * kBlock;
  const std::size_t panelColsEnd = n / kBlock * kBlock;
  const double* aData = a.data();
  const double* bData = b.data();
  double* cData = c.data();
  // panel[k·kBlock + x] = B(k, j + x) for the current panel's first column j.
  std::vector<double> panel(n * kBlock);
  for (std::size_t j = 0; j < panelColsEnd; j += kBlock) {
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t x = 0; x < kBlock; ++x)
        panel[k * kBlock + x] = bData[k * n + j + x];
    const double* bp = panel.data();
    std::size_t i = row0;
    for (; i < blockRowsEnd; i += kBlock) {
      const double* ai = aData + i * n;
      double acc[kBlock][kBlock] = {};
      // Two pivots per step: GCC then vectorizes each pivot across the
      // block's columns instead of pairing pivots through lane shuffles,
      // and the block ran about 1.4 times as fast.
      std::size_t k = 0;
      for (; k + 2 <= n; k += 2) addPivots(acc, ai, bp, n, k, k + 2);
      addPivots(acc, ai, bp, n, k, n);
      for (std::size_t r = 0; r < kBlock; ++r)
        for (std::size_t x = 0; x < kBlock; ++x)
          cData[(i + r) * n + j + x] = acc[r][x];
    }
    for (; i < row1; ++i) {
      const double* ai = aData + i * n;
      double acc[kBlock] = {};
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t x = 0; x < kBlock; ++x)
          acc[x] += ai[k] * bp[k * kBlock + x];
      for (std::size_t x = 0; x < kBlock; ++x) cData[i * n + j + x] = acc[x];
    }
  }
  const std::size_t tailCols = n - panelColsEnd;
  if (tailCols == 0) return;
  for (std::size_t i = row0; i < row1; ++i) {
    const double* ai = aData + i * n;
    double acc[kBlock] = {};
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t x = 0; x < tailCols; ++x)
        acc[x] += ai[k] * bData[k * n + panelColsEnd + x];
    for (std::size_t x = 0; x < tailCols; ++x)
      cData[i * n + panelColsEnd + x] = acc[x];
  }
}

}  // namespace

void kernels::referenceRowsBaseline(const Matrix& a, const Matrix& b,
                                    Matrix& c, int rowBegin, int rowEnd) {
  referenceRowsBody(a, b, c, rowBegin, rowEnd);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void kernels::referenceRowsAvx2(const Matrix& a,
                                                        const Matrix& b,
                                                        Matrix& c,
                                                        int rowBegin,
                                                        int rowEnd) {
  referenceRowsBody(a, b, c, rowBegin, rowEnd);
}
#endif

Matrix multiplySerial(const Matrix& a, const Matrix& b) {
  PUSHPART_CHECK(a.n() == b.n());
  Matrix c(a.n(), 0.0);
  multiplyRows(a, b, c, 0, a.n());
  return c;
}

Matrix multiplySerialBanded(const Matrix& a, const Matrix& b, int bands) {
  PUSHPART_CHECK(a.n() == b.n());
  PUSHPART_CHECK(bands >= 1);
  const int n = a.n();
  Matrix c(n, 0.0);
  const auto bandBegin = [n, bands](int band) {
    return static_cast<int>(static_cast<std::int64_t>(n) * band / bands);
  };
  {
    // jthreads join on every exit from this block, exceptions included,
    // so no band still writes c once it is returned.
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(bands - 1));
    for (int band = 1; band < bands; ++band)
      threads.emplace_back([&, band] {
        kernels::referenceRows(a, b, c, bandBegin(band),
                               bandBegin(band + 1));
      });
    kernels::referenceRows(a, b, c, 0, bandBegin(1));
  }
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
