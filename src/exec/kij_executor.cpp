#include "exec/kij_executor.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <exception>
#include <functional>
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

/// The pivot block every tile of one rectangle sweeps before the rectangle
/// moves on to the next block, and the rows of A packed at a time: a strip
/// holds kBlockK pivots of tile.rows rows, and a row block's strips stay in
/// L2 while each B panel, kBlockK × tile.cols, stays in L1.
constexpr std::size_t kBlockK = 256;
constexpr std::size_t kBlockRows = 96;

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

/// C += A·B over kc pivots for one Rows × Cols tile, as declared for
/// kernels::TileEntry, Lanes doubles per vector op. The accumulators stay in
/// registers. Every entry below inlines this one body at its build's shape,
/// so all of them perform the same operations on each element in the same
/// order.
template <std::size_t Rows, std::size_t Cols, std::size_t Lanes>
[[gnu::always_inline]] inline void tileBody(const double* ap,
                                            const double* bp, std::size_t kc,
                                            double* c, std::size_t ldc) {
  using V = kernels::Vec<Lanes>;
  constexpr std::size_t kVecs = Cols / Lanes;
  static_assert(Cols % Lanes == 0);
  static_assert(kBlockRows % Rows == 0);
  // C's rows and B's vectors pass through locals, and the accumulators are
  // never addressed: GCC then keeps them in registers.
  V acc[Rows][kVecs];
  for (std::size_t r = 0; r < Rows; ++r)
    for (std::size_t v = 0; v < kVecs; ++v) {
      V cv;
      std::memcpy(&cv, c + r * ldc + v * Lanes, sizeof cv);
      acc[r][v] = cv;
    }
  for (std::size_t k = 0; k < kc; ++k) {
    V bk[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v)
      std::memcpy(&bk[v], bp + k * Cols + v * Lanes, sizeof(V));
    for (std::size_t r = 0; r < Rows; ++r) {
      const double aik = ap[k * Rows + r];
      for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] += aik * bk[v];
    }
  }
  for (std::size_t r = 0; r < Rows; ++r)
    for (std::size_t v = 0; v < kVecs; ++v) {
      const V cv = acc[r][v];
      std::memcpy(c + r * ldc + v * Lanes, &cv, sizeof cv);
    }
}

}  // namespace

void kernels::tileBaseline(const double* ap, const double* bp,
                           std::size_t kc, double* c, std::size_t ldc) {
  tileBody<kBaselineTile.rows, kBaselineTile.cols, 2>(ap, bp, kc, c, ldc);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void kernels::tileAvx2(const double* ap,
                                               const double* bp,
                                               std::size_t kc, double* c,
                                               std::size_t ldc) {
  tileBody<kAvx2Tile.rows, kAvx2Tile.cols, 4>(ap, bp, kc, c, ldc);
}

[[gnu::target("avx512f")]] void kernels::tileAvx512f(const double* ap,
                                                     const double* bp,
                                                     std::size_t kc,
                                                     double* c,
                                                     std::size_t ldc) {
  tileBody<kAvx512fTile.rows, kAvx512fTile.cols, 8>(ap, bp, kc, c, ldc);
}
#endif

void kernels::multiplyPacked(
    const Matrix& a, const Matrix& b, Matrix& c, const Rect& rect,
    const Tile& tile, const std::function<void(std::int64_t)>& afterTile) {
  const auto n = static_cast<std::size_t>(c.n());
  const auto row0 = static_cast<std::size_t>(rect.rowBegin);
  const auto row1 = static_cast<std::size_t>(rect.rowEnd);
  const auto col0 = static_cast<std::size_t>(rect.colBegin);
  const auto col1 = static_cast<std::size_t>(rect.colEnd);
  const std::size_t mr = tile.rows;
  const std::size_t nr = tile.cols;
  const std::size_t panels = (col1 - col0 + nr - 1) / nr;
  const double* aData = a.data();
  const double* bData = b.data();
  double* cData = c.data();
  // Pivot-major, zero-padded copies of the tiles' operands: strip s of the
  // current row block at s·kc·mr, and panel t of the current pivot block of
  // B at t·kc·nr.
  const std::size_t stripRows = (row1 - row0 + mr - 1) / mr * mr;
  std::vector<double> aPack(kBlockK * std::min(kBlockRows, stripRows));
  std::vector<double> bPack(kBlockK * panels * nr);
  std::vector<double> edge(mr * nr);  // a ragged tile's C, rows nr apart
  for (std::size_t k0 = 0; k0 < n; k0 += kBlockK) {
    const std::size_t kc = std::min(n, k0 + kBlockK) - k0;
    for (std::size_t t = 0; t < panels; ++t) {
      const std::size_t j = col0 + t * nr;
      const std::size_t cols = std::min(nr, col1 - j);
      double* panel = bPack.data() + t * kc * nr;
      for (std::size_t k = 0; k < kc; ++k)
        for (std::size_t x = 0; x < nr; ++x)
          panel[k * nr + x] = x < cols ? bData[(k0 + k) * n + j + x] : 0.0;
    }
    for (std::size_t i0 = row0; i0 < row1; i0 += kBlockRows) {
      const std::size_t i1 = std::min(row1, i0 + kBlockRows);
      const std::size_t strips = (i1 - i0 + mr - 1) / mr;
      for (std::size_t s = 0; s < strips; ++s) {
        const std::size_t i = i0 + s * mr;
        const std::size_t rows = std::min(mr, i1 - i);
        double* strip = aPack.data() + s * kc * mr;
        for (std::size_t k = 0; k < kc; ++k)
          for (std::size_t r = 0; r < mr; ++r)
            strip[k * mr + r] = r < rows ? aData[(i + r) * n + k0 + k] : 0.0;
      }
      for (std::size_t t = 0; t < panels; ++t) {
        const std::size_t j = col0 + t * nr;
        const std::size_t cols = std::min(nr, col1 - j);
        const double* panel = bPack.data() + t * kc * nr;
        for (std::size_t s = 0; s < strips; ++s) {
          const std::size_t i = i0 + s * mr;
          const std::size_t rows = std::min(mr, i1 - i);
          const double* strip = aPack.data() + s * kc * mr;
          double* ct = cData + i * n + j;
          if (rows == mr && cols == nr) {
            tile.run(strip, panel, kc, ct, n);
          } else {
            for (std::size_t r = 0; r < rows; ++r)
              std::copy_n(ct + r * n, cols, edge.data() + r * nr);
            tile.run(strip, panel, kc, edge.data(), nr);
            for (std::size_t r = 0; r < rows; ++r)
              std::copy_n(edge.data() + r * nr, cols, ct + r * n);
          }
          afterTile(static_cast<std::int64_t>(rows * cols * kc));
        }
      }
    }
  }
}

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
  Matrix ref(options.verify ? n : 0, 0.0);  // the check's reference

  ExecResult result;
  Stopwatch wall;

  // --- Communication phase (emulated) -----------------------------------
  result.commElements = q.volumeOfCommunication();
  result.commSeconds = evalModel(algo, q, options.machine).commSeconds +
                       options.machine.alphaSeconds;

  // --- Barrier, then parallel computation, the check beside it ----------
  // The reference goes in chunks of kReferenceChunkCols columns, all rows
  // each, handed out by one counter: the calling thread takes chunks as soon
  // as the workers start, and each worker takes whatever is left once it has
  // finished its own cells and recorded its busy time and product-done time.
  // So the check fills the time the throttle and the join leave idle, and
  // neither the product's span nor any worker's busy time includes it. The
  // inputs are const, so the check multiplies exactly the product's inputs.
  constexpr int kChunkCols = kernels::kReferenceChunkCols;
  const int chunks = options.verify ? (n + kChunkCols - 1) / kChunkCols : 0;
  std::atomic<int> nextChunk{0};
  const auto drainCheck = [&] {
    for (int t; (t = nextChunk++) < chunks;)
      kernels::referenceColumns(a, b, ref, t * kChunkCols,
                                std::min(n, (t + 1) * kChunkCols));
  };
  const double maxSpeed = options.machine.ratio.p;
  const kernels::Tile& tile = kernels::tile();
  std::array<double, kNumProcs> busy{};
  std::array<double, kNumProcs> emulatedBusy{};  // incl. throttle sleeps
  std::array<double, kNumProcs> doneAt{};        // product done, on `wall`
  std::array<std::exception_ptr, kNumProcs> failures;  // rethrown at the join
  const auto work = [&](Proc x) {
    const auto xi = procSlot(x);
    const auto rects = ownedRects(q, x);
    Throttle throttle(options.machine.ratio.speed(x) / maxSpeed);
    Stopwatch total;
    Stopwatch quantum;  // pure-compute time since the last charge
    std::int64_t macsSinceCharge = 0;
    const std::function<void(std::int64_t)> afterTile =
        [&](std::int64_t macs) {
          macsSinceCharge += macs;
          if (macsSinceCharge < options.quantumMacs) return;
          throttle.charge(quantum.seconds());
          quantum.reset();  // charge() slept; restart the compute clock
          macsSinceCharge = 0;
        };
    for (const Rect& rect : rects)
      kernels::multiplyPacked(a, b, c, rect, tile, afterTile);
    emulatedBusy[xi] = total.seconds();
    busy[xi] = emulatedBusy[xi] - throttle.sleptSeconds();
    doneAt[xi] = wall.seconds();
    drainCheck();
  };
  {
    // jthreads join on every exit from this block, exceptions included, so
    // no worker still touches a, b, c or ref once it is left.
    std::array<std::jthread, kNumProcs> workers;
    for (Proc x : kAllProcs)
      workers[procSlot(x)] = std::jthread([&work, &failures, x] {
        try {
          work(x);
        } catch (...) {
          failures[procSlot(x)] = std::current_exception();
        }
      });
    drainCheck();
  }
  for (const std::exception_ptr& failure : failures)
    if (failure) std::rethrow_exception(failure);
  result.computeSeconds = busy;
  result.wallSeconds = *std::max_element(doneAt.begin(), doneAt.end());

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
    // The reference is bit-identical to multiplySerial and shares no code
    // with the tiled kernel; the join made both products whole.
    result.maxAbsError = maxAbsDiff(c, ref);
    result.verified = true;
  }
  return result;
}

}  // namespace pushpart
