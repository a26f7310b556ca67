// Shared-memory parallel kij MMM executor over arbitrary partitions.
//
// Three worker threads stand in for the paper's three cluster nodes: each
// computes exactly the C elements its processor owns in the partition, at a
// speed emulated by a duty-cycle throttle (exec/throttle.hpp), after an
// emulated communication phase. That phase is accounted, not slept: it is
// evalModel's comm term (model/models.hpp) plus one Hockney start-up α,
// i.e. the partition's directed pair volumes at T_send per element, all of
// them in series for SCB and the busiest sender's for PCB. It is fault-free;
// faults are studied in the simulator (sim/mmm_sim.hpp). Each worker splits
// its cells into rectangles (maximal row runs merged down consecutive rows
// with the same column bounds) and computes them in register tiles over
// ascending blocks of 256 pivots: per block it packs the rectangle's B
// columns into tile-wide panels and, 96 rows at a time, A's rows into
// tile-high strips, both zero-padded, and every tile, full or ragged, runs
// one kernel body on them (a ragged tile on a local copy of its C). The
// body's baseline (4 × 4), AVX2 (4 × 8) or AVX-512F (6 × 16) build is
// chosen once per process from the CPU (exec/kernels.hpp). Every C element
// sums its n products in ascending k starting from 0.0, as multiplySerial
// does, with no fused multiply-add in any build, so the result is
// bit-identical to it.
// The check recomputes the product from the same inputs with a
// register-blocked reference (kernels::referenceColumns) that shares no code
// with the tiles and also equals multiplySerial bit for bit, and compares
// every element. The reference runs beside the product, in chunks of 16
// columns handed out by one counter: the calling thread takes chunks while
// the workers compute, and each worker takes what is left once its own cells
// are done, so the check fills the throttle's idle time and counts neither
// in the product's wall time nor in any worker's busy time. This is the
// repo's "real execution" substrate for the Fig. 14 analogue
// (bench/exec_mmm): wall-clock times of Square-Corner vs Block-Rectangle
// under genuine threads, real floating-point work and real sleep-based
// heterogeneity.
#pragma once

#include <array>

#include "exec/matrix.hpp"
#include "grid/partition.hpp"
#include "model/algo.hpp"
#include "model/machine.hpp"
#include "sim/telemetry.hpp"

namespace pushpart {

struct ExecOptions {
  Machine machine;          ///< ratio → per-thread throttle; α, T_send → comm phase.
  /// Check every element against a reference product of the same inputs,
  /// which equals multiplySerial bit for bit. The reference is O(N³) work
  /// on the calling thread and on each worker once its own cells are done;
  /// it is not part of wallSeconds or computeSeconds.
  bool verify = true;
  std::uint64_t seed = 1;   ///< Input matrix seed.
  /// Work quantum between throttle charges, in MAC operations. Charges land
  /// on register-tile boundaries: a worker charges after the first tile
  /// that brings its uncharged work to at least this many MACs (a tile is
  /// at most 6 × 16 × 256 MACs).
  int quantumMacs = 1 << 15;
  /// When set, the run emits one PhaseSample on completion: per worker, the
  /// MACs it computed and its measured busy time *including* the throttle's
  /// duty-cycle sleeps (they are what emulates the slow processor, so
  /// units / busySeconds is the node's observed heterogeneous throughput).
  /// The adaptive serving loop (src/adapt) feeds on this.
  TelemetrySink telemetry;
};

struct ExecResult {
  /// Measured wall time from the comm phase's start until the last worker
  /// finished its cells: the product's span, without the check.
  double wallSeconds = 0.0;
  double commSeconds = 0.0;       ///< Emulated comm phase: α + model comm term.
  std::array<double, kNumProcs> computeSeconds{};  ///< Per-worker busy time.
  std::int64_t commElements = 0;  ///< Elements crossing node boundaries.
  double maxAbsError = 0.0;       ///< vs serial reference (0 when verify off).
  bool verified = false;
};

/// Runs one parallel MMM of random n×n matrices partitioned by `q` under
/// `algo` (SCB or PCB; the overlap algorithms reuse the same compute kernel
/// through the simulator instead). Throws std::invalid_argument for other
/// algorithms.
ExecResult runParallelMMM(Algo algo, const Partition& q,
                          const ExecOptions& options);

}  // namespace pushpart
