// Dense row-major matrices and a serial reference multiply.
//
// multiplySerial, the plain kij loop, is the ground truth the paper's testbed
// got from ATLAS. The executor (exec/kij_executor.hpp) validates its
// parallel result element for element against a register-blocked reference
// (kernels::referenceColumns, exec/kernels.hpp) that computes the same
// product in column chunks with C held in registers, and changes no bit of
// it. multiplySerial is compiled for the baseline ISA only, so the chain of
// equalities ends in a loop that no AVX2 or AVX-512F build rewrites.
#pragma once

#include <cstddef>
#include <vector>

#include "support/rng.hpp"

namespace pushpart {

/// Row-major n×n matrix of doubles.
class Matrix {
 public:
  explicit Matrix(int n, double fill = 0.0)
      : n_(n),
        data_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
              fill) {}

  int n() const { return n_; }

  double& at(int i, int j) { return data_[index(i, j)]; }
  double at(int i, int j) const { return data_[index(i, j)]; }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

 private:
  std::size_t index(int i, int j) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(j);
  }
  int n_;
  std::vector<double> data_;
};

/// Fills with uniform values in [-1, 1).
Matrix randomMatrix(int n, Rng& rng);

/// Serial kij reference: C = A·B. Matrices must agree in size.
Matrix multiplySerial(const Matrix& a, const Matrix& b);

/// Largest absolute elementwise difference; NaN when any difference is NaN,
/// so a NaN in either matrix never reads as a match.
double maxAbsDiff(const Matrix& x, const Matrix& y);

}  // namespace pushpart
