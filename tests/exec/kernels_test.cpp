#include "exec/kernels.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "exec/matrix.hpp"
#include "support/rng.hpp"

// Every build of the two kernels that this CPU can run, called directly,
// and the packed loop driven through each tile build: the end-to-end tests
// only reach the build the process picks, so on an AVX-512F host nothing
// else runs the baseline or the AVX2 entries.
namespace pushpart {
namespace {

using ReferenceEntry = void (*)(const Matrix&, const Matrix&, Matrix&, int,
                                int);

std::vector<double> draws(std::size_t count, Rng& rng) {
  std::vector<double> v(count);
  for (double& x : v) x = 2.0 * rng.real() - 1.0;
  return v;
}

/// One tile over kc pivots at the build's own shape, from a nonzero C,
/// against the scalar ascending-k sum; once with C's rows wider than the
/// tile, whose cells beside the tile must not change, and once with rows
/// exactly as wide, as in a ragged tile's local copy.
void expectTileIsBitIdentical(const kernels::Tile& tile) {
  const std::size_t mr = tile.rows;
  const std::size_t nr = tile.cols;
  for (std::size_t ldc : {nr + 3, nr})
    for (std::size_t kc : {1u, 2u, 255u, 256u}) {
      Rng rng(kc);
      const std::vector<double> ap = draws(kc * mr, rng);
      const std::vector<double> bp = draws(kc * nr, rng);
      const std::vector<double> c0 = draws(mr * ldc, rng);
      std::vector<double> want = c0;
      for (std::size_t r = 0; r < mr; ++r)
        for (std::size_t x = 0; x < nr; ++x) {
          double sum = c0[r * ldc + x];
          for (std::size_t k = 0; k < kc; ++k)
            sum += ap[k * mr + r] * bp[k * nr + x];
          want[r * ldc + x] = sum;
        }
      std::vector<double> got = c0;
      tile.run(ap.data(), bp.data(), kc, got.data(), ldc);
      EXPECT_EQ(
          std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0)
          << mr << " x " << nr << " tile, kc " << kc << ", row stride " << ldc;
    }
}

/// Rows of A·B in one call and in three bands, against multiplySerial.
void expectReferenceIsBitIdentical(ReferenceEntry entry) {
  for (int n : {1, 2, 3, 4, 5, 7, 8, 64, 129, 130, 131, 512}) {
    Rng rng(static_cast<std::uint64_t>(n));
    const Matrix a = randomMatrix(n, rng);
    const Matrix b = randomMatrix(n, rng);
    const Matrix serial = multiplySerial(a, b);
    const std::size_t bytes =
        static_cast<std::size_t>(n) * static_cast<std::size_t>(n) *
        sizeof(double);
    Matrix full(n, 0.0);
    entry(a, b, full, 0, n);
    EXPECT_EQ(std::memcmp(full.data(), serial.data(), bytes), 0)
        << "n " << n << " one call";
    Matrix banded(n, 0.0);
    for (int band = 0; band < 3; ++band)
      entry(a, b, banded, n * band / 3, n * (band + 1) / 3);
    EXPECT_EQ(std::memcmp(banded.data(), serial.data(), bytes), 0)
        << "n " << n << " three bands";
  }
}

TEST(KernelEntryTest, BaselineTileIsBitIdentical) {
  expectTileIsBitIdentical(kernels::kBaselineTile);
}

TEST(KernelEntryTest, Avx2TileIsBitIdentical) {
#if defined(__x86_64__)
  if (!kernels::avx2Kernels()) GTEST_SKIP() << "this CPU has no AVX2";
  expectTileIsBitIdentical(kernels::kAvx2Tile);
#else
  GTEST_SKIP() << "the AVX2 entries are built on x86-64 only";
#endif
}

TEST(KernelEntryTest, Avx512TileIsBitIdentical) {
#if defined(__x86_64__)
  if (!kernels::avx512fKernels()) GTEST_SKIP() << "this CPU has no AVX-512F";
  expectTileIsBitIdentical(kernels::kAvx512fTile);
#else
  GTEST_SKIP() << "the AVX-512F entries are built on x86-64 only";
#endif
}

TEST(KernelEntryTest, BaselineReferenceIsBitIdentical) {
  expectReferenceIsBitIdentical(kernels::referenceRowsBaseline);
}

TEST(KernelEntryTest, Avx2ReferenceIsBitIdentical) {
#if defined(__x86_64__)
  if (!kernels::avx2Kernels()) GTEST_SKIP() << "this CPU has no AVX2";
  expectReferenceIsBitIdentical(kernels::referenceRowsAvx2);
#else
  GTEST_SKIP() << "the AVX2 entries are built on x86-64 only";
#endif
}

TEST(KernelEntryTest, Avx512ReferenceIsBitIdentical) {
#if defined(__x86_64__)
  if (!kernels::avx512fKernels()) GTEST_SKIP() << "this CPU has no AVX-512F";
  expectReferenceIsBitIdentical(kernels::referenceRowsAvx512f);
#else
  GTEST_SKIP() << "the AVX-512F entries are built on x86-64 only";
#endif
}

// The packed loop over single rectangles of a 301 × 301 product, from C = 0:
// the rectangle's cells must equal multiplySerial's and every other cell
// must stay 0.0. n = 301 spans two pivot blocks, and the last rectangle
// crosses a row block at an offset inside C, with ragged tiles at its bottom
// and right edges whatever the build's shape.
TEST(KernelEntryTest, PackedLoopIsBitIdenticalWithEveryBuild) {
  constexpr int n = 301;
  Rng rng(30);
  const Matrix a = randomMatrix(n, rng);
  const Matrix b = randomMatrix(n, rng);
  const Matrix serial = multiplySerial(a, b);
  std::vector<const kernels::Tile*> tiles{&kernels::kBaselineTile};
#if defined(__x86_64__)
  if (kernels::avx2Kernels()) tiles.push_back(&kernels::kAvx2Tile);
  if (kernels::avx512fKernels()) tiles.push_back(&kernels::kAvx512fTile);
#endif
  for (const kernels::Tile* tile : tiles) {
    const int mr = static_cast<int>(tile->rows);
    const int nr = static_cast<int>(tile->cols);
    const Rect rects[] = {
        {0, 1, 0, 1},                        // one cell
        {10, 15, 20, 20 + nr - 1},           // narrower than a tile
        {40, 40 + mr + 1, 50, 50 + 2 * nr},  // one row past a strip
        {7, 110, 3, 40},                     // two row blocks, ragged edges
    };
    for (const Rect& rect : rects) {
      Matrix want(n, 0.0);
      for (int i = rect.rowBegin; i < rect.rowEnd; ++i)
        for (int j = rect.colBegin; j < rect.colEnd; ++j)
          want.at(i, j) = serial.at(i, j);
      Matrix got(n, 0.0);
      std::int64_t macs = 0;
      kernels::multiplyPacked(a, b, got, rect, *tile,
                              [&macs](std::int64_t m) { macs += m; });
      EXPECT_EQ(
          std::memcmp(got.data(), want.data(), sizeof(double) * n * n), 0)
          << mr << " x " << nr << " tile, rect " << rect;
      EXPECT_EQ(macs, rect.area() * n)
          << mr << " x " << nr << " tile, rect " << rect;
    }
  }
}

}  // namespace
}  // namespace pushpart
