#include "exec/kij_executor.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/kernels.hpp"
#include "exec/throttle.hpp"
#include "grid/rect.hpp"
#include "model/models.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace pushpart {

namespace {

using kernels::kTileCols;
using kernels::kTileRows;

/// The pivot block the register tiles of one rectangle sweep before moving
/// on to the next block.
constexpr std::size_t kBlockK = 256;

/// The cells `x` owns as disjoint rectangles: the maximal runs of x along
/// each row, merged down consecutive rows that have the same column bounds.
std::vector<Rect> ownedRects(const Partition& q, Proc x) {
  std::vector<Rect> done;
  std::vector<Rect> open;  // reach the previous row; sorted by colBegin
  std::vector<Rect> next;
  for (int i = 0; i < q.n(); ++i) {
    next.clear();
    std::size_t o = 0;
    for (int j = 0; j < q.n();) {
      if (q.at(i, j) != x) {
        ++j;
        continue;
      }
      const int begin = j;
      while (j < q.n() && q.at(i, j) == x) ++j;
      while (o < open.size() && open[o].colBegin < begin)
        done.push_back(open[o++]);
      if (o < open.size() && open[o].colBegin == begin &&
          open[o].colEnd == j) {
        next.push_back(open[o++]);
        next.back().rowEnd = i + 1;
      } else {
        next.push_back({i, i + 1, begin, j});
      }
    }
    done.insert(done.end(), open.begin() + static_cast<std::ptrdiff_t>(o),
                open.end());
    std::swap(open, next);
  }
  done.insert(done.end(), open.begin(), open.end());
  return done;
}

/// C += A·B over one pivot block for a full tile, as declared for
/// kernels::fullTileBaseline. The accumulators stay in registers. Both
/// entries below inline this one body, so the AVX2 build performs the same
/// operations in the same order.
[[gnu::always_inline]] inline void fullTileBody(const double* ap,
                                                const double* bp,
                                                std::size_t kc, double* c,
                                                std::size_t n) {
  double acc[kTileRows][kTileCols];
  for (std::size_t r = 0; r < kTileRows; ++r)
    for (std::size_t x = 0; x < kTileCols; ++x) acc[r][x] = c[r * n + x];
  for (std::size_t k = 0; k < kc; ++k)
    for (std::size_t r = 0; r < kTileRows; ++r) {
      const double aik = ap[k * kTileRows + r];
      for (std::size_t x = 0; x < kTileCols; ++x)
        acc[r][x] += aik * bp[k * kTileCols + x];
    }
  for (std::size_t r = 0; r < kTileRows; ++r)
    for (std::size_t x = 0; x < kTileCols; ++x) c[r * n + x] = acc[r][x];
}

/// C += A·B over pivots [k0, k1) for a ragged tile at a rectangle's bottom
/// or right edge (rows <= kTileRows, cols <= kTileCols), read in place: `a`
/// points at the tile's first row of A, `b` at its first column of B and
/// `c` at its top-left element of C; rows are n apart.
void edgeTile(const double* a, const double* b, double* c, std::size_t n,
              std::size_t rows, std::size_t cols, std::size_t k0,
              std::size_t k1) {
  for (std::size_t r = 0; r < rows; ++r) {
    double acc[kTileCols];
    for (std::size_t x = 0; x < cols; ++x) acc[x] = c[r * n + x];
    for (std::size_t k = k0; k < k1; ++k) {
      const double aik = a[r * n + k];
      const double* brow = b + k * n;
      for (std::size_t x = 0; x < cols; ++x) acc[x] += aik * brow[x];
    }
    for (std::size_t x = 0; x < cols; ++x) c[r * n + x] = acc[x];
  }
}

/// C += A·B for the cells of `rect`, pivot block by pivot block in
/// ascending order, one register tile at a time; `afterTile(macs)` runs
/// after each tile. Each pivot block of B is packed once for the rectangle's
/// full tile columns, and each row strip of A once for its full tiles.
/// Every cell continues its sum from C's current value in ascending k, so
/// from C = 0 the result equals multiplySerial bit for bit.
template <class AfterTile>
void multiplyRect(const Matrix& a, const Matrix& b, Matrix& c,
                  const Rect& rect, AfterTile&& afterTile) {
  const auto n = static_cast<std::size_t>(c.n());
  const auto row0 = static_cast<std::size_t>(rect.rowBegin);
  const auto row1 = static_cast<std::size_t>(rect.rowEnd);
  const auto col0 = static_cast<std::size_t>(rect.colBegin);
  const auto col1 = static_cast<std::size_t>(rect.colEnd);
  const std::size_t fullCols = (col1 - col0) / kTileCols * kTileCols;
  const double* aData = a.data();
  const double* bData = b.data();
  double* cData = c.data();
  // Pivot-major copies of the full tiles' operands: A's current row strip,
  // and one kc × kTileCols panel of B per full tile column (panel t at t·kc).
  std::vector<double> aPack(fullCols > 0 ? kBlockK * kTileRows : 0);
  std::vector<double> bPack(kBlockK * fullCols);
  for (std::size_t k0 = 0; k0 < n; k0 += kBlockK) {
    const std::size_t k1 = std::min(n, k0 + kBlockK);
    const std::size_t kc = k1 - k0;
    for (std::size_t t = 0; t < fullCols; t += kTileCols)
      for (std::size_t k = 0; k < kc; ++k)
        for (std::size_t x = 0; x < kTileCols; ++x)
          bPack[t * kc + k * kTileCols + x] =
              bData[(k0 + k) * n + col0 + t + x];
    for (std::size_t i = row0; i < row1; i += kTileRows) {
      const std::size_t rows = std::min(kTileRows, row1 - i);
      if (rows == kTileRows && fullCols > 0)
        for (std::size_t k = 0; k < kc; ++k)
          for (std::size_t r = 0; r < kTileRows; ++r)
            aPack[k * kTileRows + r] = aData[(i + r) * n + k0 + k];
      for (std::size_t j = col0; j < col1; j += kTileCols) {
        const std::size_t cols = std::min(kTileCols, col1 - j);
        double* ct = cData + i * n + j;
        if (rows == kTileRows && cols == kTileCols)
          kernels::fullTile(aPack.data(), bPack.data() + (j - col0) * kc,
                            kc, ct, n);
        else
          edgeTile(aData + i * n, bData + j, ct, n, rows, cols, k0, k1);
        afterTile(static_cast<std::int64_t>(rows * cols * kc));
      }
    }
  }
}

}  // namespace

void kernels::fullTileBaseline(const double* ap, const double* bp,
                               std::size_t kc, double* c, std::size_t n) {
  fullTileBody(ap, bp, kc, c, n);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void kernels::fullTileAvx2(const double* ap,
                                                   const double* bp,
                                                   std::size_t kc, double* c,
                                                   std::size_t n) {
  fullTileBody(ap, bp, kc, c, n);
}
#endif

ExecResult runParallelMMM(Algo algo, const Partition& q,
                          const ExecOptions& options) {
  requireThreeOwners(q);
  if (algo != Algo::kSCB && algo != Algo::kPCB)
    throw std::invalid_argument(
        "runParallelMMM: executor implements the barrier algorithms (SCB, "
        "PCB); use simulateMMM for the overlap family");
  PUSHPART_CHECK_MSG(options.machine.ratio.valid(),
                     "invalid ratio " << options.machine.ratio.str());
  PUSHPART_CHECK(options.quantumMacs > 0);

  const int n = q.n();
  Rng rng(options.seed);
  const Matrix a = randomMatrix(n, rng);
  const Matrix b = randomMatrix(n, rng);
  Matrix c(n, 0.0);

  ExecResult result;
  Stopwatch wall;

  // --- Communication phase (emulated) -----------------------------------
  result.commElements = q.volumeOfCommunication();
  result.commSeconds = evalModel(algo, q, options.machine).commSeconds +
                       options.machine.alphaSeconds;

  // --- Barrier, then parallel computation -------------------------------
  const double maxSpeed = options.machine.ratio.p;
  std::array<std::thread, kNumProcs> workers;
  std::array<double, kNumProcs> busy{};
  std::array<double, kNumProcs> emulatedBusy{};  // incl. throttle sleeps
  for (Proc x : kAllProcs) {
    const auto xi = procSlot(x);
    workers[xi] = std::thread([&, x, xi] {
      const auto rects = ownedRects(q, x);
      Throttle throttle(options.machine.ratio.speed(x) / maxSpeed);
      Stopwatch total;
      Stopwatch quantum;  // pure-compute time since the last charge
      std::int64_t macsSinceCharge = 0;
      for (const Rect& rect : rects)
        multiplyRect(a, b, c, rect, [&](std::int64_t macs) {
          macsSinceCharge += macs;
          if (macsSinceCharge < options.quantumMacs) return;
          throttle.charge(quantum.seconds());
          quantum.reset();  // charge() slept; restart the compute clock
          macsSinceCharge = 0;
        });
      emulatedBusy[xi] = total.seconds();
      busy[xi] = emulatedBusy[xi] - throttle.sleptSeconds();
    });
  }
  for (auto& t : workers)
    if (t.joinable()) t.join();
  result.computeSeconds = busy;
  result.wallSeconds = wall.seconds();

  if (options.telemetry) {
    // One phase observation per run. busySeconds includes the throttle's
    // duty-cycle sleeps: they are exactly what makes the emulated processor
    // slow, so units / busySeconds is the heterogeneous throughput a real
    // monitor would measure on that node.
    PhaseSample sample;
    sample.at = result.wallSeconds;
    for (Proc x : kAllProcs) {
      NodeSample& node = sample.node(x);
      node.proc = x;
      node.units = q.count(x) * n;
      node.busySeconds = emulatedBusy[procSlot(x)];
    }
    options.telemetry(sample);
  }

  // --- Verification ------------------------------------------------------
  if (options.verify) {
    // The register-blocked reference in one row band per worker, on the
    // same a and b the workers read: they are const, so the check multiplies
    // exactly the product's inputs. The workers have joined, so it runs on
    // as many threads as the product did. It is bit-identical to
    // multiplySerial and shares no code with the tiled kernel.
    const Matrix ref = multiplySerialBanded(a, b, kNumProcs);
    result.maxAbsError = maxAbsDiff(c, ref);
    result.verified = true;
  }
  return result;
}

}  // namespace pushpart
