#include "exec/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <thread>
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

/// Columns of A·B three ways, each against multiplySerial exactly: over all
/// columns in one call; in chunks of kReferenceChunkCols columns in shuffled
/// order; and in chunks drained from one shared counter by four threads at
/// once, as the executor's check drains them. C starts as NaN, so a cell no
/// call writes cannot match. The sizes cover n below, at and past one chunk,
/// every n mod 4 (the last block's leftover rows), a ragged last chunk at
/// n = 129–131 and 301, and n = 512, whose 4 KiB row stride aliases in cache.
void expectReferenceIsBitIdentical(ReferenceEntry entry) {
  constexpr int kChunk = kernels::kReferenceChunkCols;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int n :
       {1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 64, 129, 130, 131, 301, 512}) {
    Rng rng(static_cast<std::uint64_t>(n));
    const Matrix a = randomMatrix(n, rng);
    const Matrix b = randomMatrix(n, rng);
    const Matrix serial = multiplySerial(a, b);
    const std::size_t bytes =
        static_cast<std::size_t>(n) * static_cast<std::size_t>(n) *
        sizeof(double);
    const int chunks = (n + kChunk - 1) / kChunk;
    const auto runChunk = [&](Matrix& c, int t) {
      entry(a, b, c, t * kChunk, std::min(n, (t + 1) * kChunk));
    };

    Matrix whole(n, nan);
    entry(a, b, whole, 0, n);
    EXPECT_EQ(std::memcmp(whole.data(), serial.data(), bytes), 0)
        << "n " << n << " one call";

    std::vector<int> order(static_cast<std::size_t>(chunks));
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    Matrix shuffled(n, nan);
    for (int t : order) runChunk(shuffled, t);
    EXPECT_EQ(std::memcmp(shuffled.data(), serial.data(), bytes), 0)
        << "n " << n << " chunks in shuffled order";

    Matrix drained(n, nan);
    std::atomic<int> next{0};
    {
      std::vector<std::jthread> threads;
      for (int w = 0; w < 4; ++w)
        threads.emplace_back([&] {
          for (int t; (t = next.fetch_add(1)) < chunks;) runChunk(drained, t);
        });
    }
    EXPECT_EQ(std::memcmp(drained.data(), serial.data(), bytes), 0)
        << "n " << n << " chunks drained by four threads";
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
  expectReferenceIsBitIdentical(kernels::referenceColumnsBaseline);
}

// The build this CPU picks, through the dispatch the executor's check calls.
TEST(KernelEntryTest, DispatchedReferenceIsBitIdentical) {
  expectReferenceIsBitIdentical(kernels::referenceColumns);
}

TEST(KernelEntryTest, Avx2ReferenceIsBitIdentical) {
#if defined(__x86_64__)
  if (!kernels::avx2Kernels()) GTEST_SKIP() << "this CPU has no AVX2";
  expectReferenceIsBitIdentical(kernels::referenceColumnsAvx2);
#else
  GTEST_SKIP() << "the AVX2 entries are built on x86-64 only";
#endif
}

TEST(KernelEntryTest, Avx512ReferenceIsBitIdentical) {
#if defined(__x86_64__)
  if (!kernels::avx512fKernels()) GTEST_SKIP() << "this CPU has no AVX-512F";
  expectReferenceIsBitIdentical(kernels::referenceColumnsAvx512f);
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
