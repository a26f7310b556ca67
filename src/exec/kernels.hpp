// The executor's and the check's O(n³) kernels, each built twice from one
// body, and the once-per-process choice between the builds. Private to
// src/exec: included by kij_executor.cpp, matrix.cpp and the tests only.
//
// The baseline entries are compiled for the target's default ISA (SSE2 on
// x86-64, two doubles per vector op); on x86-64 the AVX2 entries run the
// same body four doubles at a time. Neither reorders a sum: every C element
// adds a(i,k)·b(k,j) in ascending k, one rounding per multiply and one per
// add, so both builds give the bits of multiplySerial. That holds because
// avx2 enables no fused multiply-add, so GCC cannot contract acc += a * b;
// avx512f or fma would let it (and GCC turns FMA on with AVX-512F). The
// choice is a plain branch on avx2Kernels(), not an ifunc (target_clones):
// ifunc resolvers run during relocation, before ThreadSanitizer's runtime is
// up, and a TSan exec_test built that way crashed at start-up.
#pragma once

#include <cstddef>

#include "exec/matrix.hpp"

namespace pushpart::kernels {

/// The executor's register tile.
inline constexpr std::size_t kTileRows = 4;
inline constexpr std::size_t kTileCols = 8;

/// True when this CPU runs the AVX2 entries. Asked once per process.
inline bool avx2Kernels() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

/// C += A·B over kc pivots for one full kTileRows × kTileCols tile whose
/// operands are packed pivot-major: ap[k·kTileRows + r] = A(i + r, k0 + k)
/// and bp[k·kTileCols + x] = B(k0 + k, j + x). `c` points at the tile's
/// top-left element of C, whose rows are n apart.
void fullTileBaseline(const double* ap, const double* bp, std::size_t kc,
                      double* c, std::size_t n);

/// Rows [rowBegin, rowEnd) of C = A·B, each element summed over ascending k
/// from 0.0; multiplySerialBanded runs one call per band.
void referenceRowsBaseline(const Matrix& a, const Matrix& b, Matrix& c,
                           int rowBegin, int rowEnd);

#if defined(__x86_64__)
/// The same kernels built for AVX2; call them only when avx2Kernels().
[[gnu::target("avx2")]] void fullTileAvx2(const double* ap, const double* bp,
                                          std::size_t kc, double* c,
                                          std::size_t n);
[[gnu::target("avx2")]] void referenceRowsAvx2(const Matrix& a,
                                               const Matrix& b, Matrix& c,
                                               int rowBegin, int rowEnd);
#endif

/// The entry avx2Kernels() picks.
inline void fullTile(const double* ap, const double* bp, std::size_t kc,
                     double* c, std::size_t n) {
#if defined(__x86_64__)
  if (avx2Kernels()) return fullTileAvx2(ap, bp, kc, c, n);
#endif
  fullTileBaseline(ap, bp, kc, c, n);
}

inline void referenceRows(const Matrix& a, const Matrix& b, Matrix& c,
                          int rowBegin, int rowEnd) {
#if defined(__x86_64__)
  if (avx2Kernels()) return referenceRowsAvx2(a, b, c, rowBegin, rowEnd);
#endif
  referenceRowsBaseline(a, b, c, rowBegin, rowEnd);
}

}  // namespace pushpart::kernels
