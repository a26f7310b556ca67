#include "exec/kernels.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "exec/matrix.hpp"
#include "support/rng.hpp"

// Every build of the two kernels that this CPU can run, called directly:
// the end-to-end tests only reach the build avx2Kernels() picks, so on an
// AVX2 host nothing else runs the baseline entries.
namespace pushpart {
namespace {

using kernels::kTileCols;
using kernels::kTileRows;

using TileEntry = void (*)(const double*, const double*, std::size_t,
                           double*, std::size_t);
using ReferenceEntry = void (*)(const Matrix&, const Matrix&, Matrix&, int,
                                int);

std::vector<double> draws(std::size_t count, Rng& rng) {
  std::vector<double> v(count);
  for (double& x : v) x = 2.0 * rng.real() - 1.0;
  return v;
}

/// One full tile over kc pivots, from a nonzero C whose rows are wider than
/// the tile, against the scalar ascending-k sum; the cells beside the tile
/// must not change.
void expectTileIsBitIdentical(TileEntry entry) {
  constexpr std::size_t n = kTileCols + 3;  // C's row stride
  for (std::size_t kc : {1u, 2u, 255u, 256u}) {
    Rng rng(kc);
    const std::vector<double> ap = draws(kc * kTileRows, rng);
    const std::vector<double> bp = draws(kc * kTileCols, rng);
    const std::vector<double> c0 = draws(kTileRows * n, rng);
    std::vector<double> want = c0;
    for (std::size_t r = 0; r < kTileRows; ++r)
      for (std::size_t x = 0; x < kTileCols; ++x) {
        double sum = c0[r * n + x];
        for (std::size_t k = 0; k < kc; ++k)
          sum += ap[k * kTileRows + r] * bp[k * kTileCols + x];
        want[r * n + x] = sum;
      }
    std::vector<double> got = c0;
    entry(ap.data(), bp.data(), kc, got.data(), n);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
              0)
        << "kc " << kc;
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
  expectTileIsBitIdentical(kernels::fullTileBaseline);
}

TEST(KernelEntryTest, Avx2TileIsBitIdentical) {
#if defined(__x86_64__)
  if (!kernels::avx2Kernels()) GTEST_SKIP() << "this CPU has no AVX2";
  expectTileIsBitIdentical(kernels::fullTileAvx2);
#else
  GTEST_SKIP() << "the AVX2 entries are built on x86-64 only";
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

}  // namespace
}  // namespace pushpart
