// The executor's and the check's O(n³) kernels, each built for several ISAs,
// the packed loop that runs every tile of a rectangle through one tile
// build, and the once-per-process choice between the builds. Private to
// src/exec: included by kij_executor.cpp, matrix.cpp and the tests only.
//
// The baseline entries are compiled for the target's default ISA (SSE2 on
// x86-64, two doubles per vector op); on x86-64 the AVX2 entries run four
// doubles at a time and the AVX-512F entries eight. Each kernel is one body,
// instantiated per build at a shape that fits the build's registers. None
// reorders a sum: every C element adds a(i,k)·b(k,j) in ascending k, one
// rounding per multiply and one per add, so every build gives the bits of
// multiplySerial. That holds because the library is compiled with
// -ffp-contract=off (src/exec/CMakeLists.txt): GCC would otherwise contract
// acc += a * b into a fused multiply-add wherever the target has one, and
// avx512f has. The choice is a plain branch on avx512fKernels() and
// avx2Kernels(), not an ifunc (target_clones): ifunc resolvers run during
// relocation, before ThreadSanitizer's runtime is up, and a TSan exec_test
// built that way crashed at start-up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "exec/matrix.hpp"
#include "grid/rect.hpp"

namespace pushpart::kernels {

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

/// True when this CPU runs the AVX-512F entries. Asked once per process.
inline bool avx512fKernels() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

/// A GNU vector of Lanes doubles. The kernels are written in these rather
/// than in scalar arrays: GCC's vectorizer does not keep a scalar-array block
/// of AVX-512 width in registers.
template <std::size_t Lanes>
using Vec [[gnu::vector_size(Lanes * sizeof(double))]] = double;

/// C += A·B over kc pivots for one rows × cols register tile whose operands
/// are packed pivot-major: ap[k·rows + r] = A(i + r, k0 + k) and
/// bp[k·cols + x] = B(k0 + k, j + x). `c` points at the tile's top-left
/// element of C, whose rows are ldc apart.
using TileEntry = void (*)(const double* ap, const double* bp, std::size_t kc,
                           double* c, std::size_t ldc);

/// One build of the executor's register tile and the shape it computes.
struct Tile {
  std::size_t rows;
  std::size_t cols;
  TileEntry run;
};

void tileBaseline(const double* ap, const double* bp, std::size_t kc,
                  double* c, std::size_t ldc);

/// Rows [rowBegin, rowEnd) of C = A·B, each element summed over ascending k
/// from 0.0; multiplySerialBanded runs one call per band.
void referenceRowsBaseline(const Matrix& a, const Matrix& b, Matrix& c,
                           int rowBegin, int rowEnd);

inline constexpr Tile kBaselineTile{4, 4, tileBaseline};

#if defined(__x86_64__)
/// The same kernels built for AVX2 and for AVX-512F; call them only when
/// avx2Kernels() or avx512fKernels() respectively.
[[gnu::target("avx2")]] void tileAvx2(const double* ap, const double* bp,
                                      std::size_t kc, double* c,
                                      std::size_t ldc);
[[gnu::target("avx2")]] void referenceRowsAvx2(const Matrix& a,
                                               const Matrix& b, Matrix& c,
                                               int rowBegin, int rowEnd);
[[gnu::target("avx512f")]] void tileAvx512f(const double* ap,
                                            const double* bp, std::size_t kc,
                                            double* c, std::size_t ldc);
[[gnu::target("avx512f")]] void referenceRowsAvx512f(const Matrix& a,
                                                     const Matrix& b,
                                                     Matrix& c, int rowBegin,
                                                     int rowEnd);

inline constexpr Tile kAvx2Tile{4, 8, tileAvx2};
inline constexpr Tile kAvx512fTile{6, 16, tileAvx512f};
#endif

/// The tile build this CPU runs best: AVX-512F, else AVX2, else baseline.
inline const Tile& tile() {
#if defined(__x86_64__)
  if (avx512fKernels()) return kAvx512fTile;
  if (avx2Kernels()) return kAvx2Tile;
#endif
  return kBaselineTile;
}

/// The reference build picked the same way.
inline void referenceRows(const Matrix& a, const Matrix& b, Matrix& c,
                          int rowBegin, int rowEnd) {
#if defined(__x86_64__)
  if (avx512fKernels())
    return referenceRowsAvx512f(a, b, c, rowBegin, rowEnd);
  if (avx2Kernels()) return referenceRowsAvx2(a, b, c, rowBegin, rowEnd);
#endif
  referenceRowsBaseline(a, b, c, rowBegin, rowEnd);
}

/// C += A·B for the cells of `rect` (C, A and B are n × n), pivot block by
/// pivot block in ascending order, every tile through `tile`: each pivot
/// block of B is packed into tile.cols-wide panels and each row block of A
/// into tile.rows-row strips, both zero-padded, and a ragged tile at the
/// rectangle's bottom or right edge runs on a local tile.rows × tile.cols
/// copy of C. `afterTile(macs)` runs after each tile with the MACs of the
/// cells it computed. Every cell continues its sum from C's current value in
/// ascending k, so from C = 0 the result equals multiplySerial bit for bit.
void multiplyPacked(const Matrix& a, const Matrix& b, Matrix& c,
                    const Rect& rect, const Tile& tile,
                    const std::function<void(std::int64_t)>& afterTile);

}  // namespace pushpart::kernels
