#include "exec/matrix.hpp"

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

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

}  // namespace

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
        multiplyRows(a, b, c, bandBegin(band), bandBegin(band + 1));
      });
    multiplyRows(a, b, c, 0, bandBegin(1));
  }
  return c;
}

double maxAbsDiff(const Matrix& x, const Matrix& y) {
  PUSHPART_CHECK(x.n() == y.n());
  double worst = 0.0;
  for (int i = 0; i < x.n(); ++i)
    for (int j = 0; j < x.n(); ++j)
      worst = std::max(worst, std::fabs(x.at(i, j) - y.at(i, j)));
  return worst;
}

}  // namespace pushpart
