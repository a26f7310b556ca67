// Performance models of the five parallel MMM algorithms (paper §IV-B,
// Eqs. 2–9), evaluated on arbitrary partitions.
//
// Each model turns a partition's communication metrics and per-processor
// computation loads into predicted execution time on a Machine, under a
// fully-connected or star topology. The models share the paper's structure:
//
//   SCB:  T = VoC·T_send                         + max_X comp_X
//   PCB:  T = max_X d_X·T_send                   + max_X comp_X
//   SCO:  T = max(Σ_X d_X·T_send, max_X o_X)     + max_X rem_X
//   PCO:  T = max(max_X d_X·T_send, max_X o_X)   + max_X rem_X
//   PIO:  T = comm(1) + Σ_k max(comm(k+1), max_X step_X) + max_X step_X
//
// where d_X is processor X's *send* volume derived from the directed pair
// volumes (so Σ_X d_X equals the Eq. 1 VoC exactly — the paper's algebraic
// d_X in Eq. 6 counts coverage rather than directed copies; see DESIGN.md),
// o_X is the bulk-overlap computation X performs for the C elements whose
// pivot rows and columns it owns entirely, rem_X the remaining computation,
// and comm(k) the per-pivot-step volume N(c_k_row−1) + N(c_k_col−1).
//
// Star topology: spoke↔spoke traffic relays through the hub. Serial volumes
// count relayed elements twice; parallel per-processor volumes charge the
// hub with the forwarded traffic.
//
// evalModel reads only per-owner totals and the line groups of
// grid/metrics.hpp (per-owner line counts, hence c_i and c_j), so tier A
// ranks the candidate shapes from LineCounts' few runs without painting a
// grid: its sums do not grow with N, except PIO's one add per pivot. PIO
// has one loop, evalPioBlocked, which prices the paper's "k rows and
// columns at a time"; evalModel(kPIO) is that loop at k = 1.
//
// This header is the one place where counts become seconds. The simulator
// (sim/mmm_sim.hpp) takes the max_X terms from computeLoads and its
// fault-free bulk finish from bulkResult, so at α = 0 it equals the model;
// the executor's comm phase is evalModel's comm term plus α; the drift loop
// (src/adapt) prices frozen and best plans with evalModel.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "grid/metrics.hpp"
#include "grid/partition.hpp"
#include "model/algo.hpp"
#include "model/machine.hpp"
#include "model/topology.hpp"
#include "support/check.hpp"

namespace pushpart {

/// Predicted timing decomposition for one (algorithm, partition) pair.
struct ModelResult {
  double commSeconds = 0.0;     ///< Pre-barrier / overlapped communication.
  double overlapSeconds = 0.0;  ///< Computation overlapped with comm (SCO/PCO).
  double compSeconds = 0.0;     ///< Post-communication computation.
  double execSeconds = 0.0;     ///< Modeled total execution time.

  /// Exact (bitwise) comparison — the serve cache guarantees hits replay the
  /// cold computation's numbers verbatim.
  friend bool operator==(const ModelResult&, const ModelResult&) = default;
};

/// Largest n the models accept: n³, the MAC count of the whole product,
/// must fit in int64 (2,097,152³ = 2⁶³ does not).
inline constexpr int kMaxModelN = 2'097'151;

namespace detail {

/// Communication volumes after topology routing.
struct CommVolumes {
  std::int64_t serialTotal = 0;                   ///< Σ link crossings.
  std::array<std::int64_t, kNumProcs> perProc{};  ///< Outbound per processor.
};

/// Routes the directed pair volumes over the topology.
CommVolumes routedVolumes(
    const std::array<std::array<std::int64_t, kNumProcs>, kNumProcs>& v,
    Topology topology, StarConfig star);

/// Elements moved at a PIO pivot step whose pivot row holds `row`'s counts
/// and whose pivot column holds `col`'s: N(c_row − 1) + N(c_col − 1) (Eq.
/// 9). Under a star, spoke-owned pivot elements relayed to the other spoke
/// are charged a second crossing (upper bound: every spoke pivot element
/// forwarded).
inline std::int64_t pioStepVolume(std::int64_t n, const LineRun& row,
                                  const LineRun& col, Topology topology,
                                  StarConfig star) {
  std::int64_t volume = n * (row.procs() - 1) + n * (col.procs() - 1);
  if (topology == Topology::kStar) {
    for (Proc x : kSlowProcs) {
      if (x == star.hub) continue;
      volume += row.count[procSlot(x)] + col.count[procSlot(x)];
    }
  }
  return volume;
}

}  // namespace detail

/// The slowest owner's computation loads of a partition on a machine: the
/// max_X terms of Eqs. 2–9. Each owned C element takes N MACs.
struct ComputeLoads {
  double full = 0.0;       ///< All owned elements (SCB/PCB).
  double overlap = 0.0;    ///< Elements with local pivots (SCO/PCO o_X).
  double remainder = 0.0;  ///< The rest (SCO/PCO rem_X).
  double step = 0.0;       ///< One pivot step, one MAC per element (PIO).
};

/// computeLoads of `q` — a Partition, a BitPartition or a LineCounts — at
/// `machine.ratio`'s speeds.
template <typename Q>
ComputeLoads computeLoads(const Q& q, const Machine& machine) {
  const std::int64_t n = q.n();
  ComputeLoads loads;
  for (Proc x : kAllProcs) {
    const std::int64_t owned = q.count(x);
    const std::int64_t local = overlapElements(q, x);
    loads.full = std::max(loads.full, machine.computeSeconds(x, owned * n));
    loads.overlap =
        std::max(loads.overlap, machine.computeSeconds(x, local * n));
    loads.remainder = std::max(loads.remainder,
                               machine.computeSeconds(x, (owned - local) * n));
    loads.step = std::max(loads.step, machine.computeSeconds(x, owned));
  }
  return loads;
}

/// The bulk algorithms' combine of a communication time with the compute
/// loads: comm + full behind a barrier (SCB, PCB), or max(comm, overlap) +
/// remainder (SCO, PCO). PIO interleaves per pivot and has none.
ModelResult bulkResult(Algo algo, double commSeconds,
                       const ComputeLoads& loads);

/// Blocked PIO (paper §II: data is sent "a row and a column — or k rows and
/// columns — at a time") on `q` — a Partition, a BitPartition or a
/// LineCounts. Pivots are grouped into blocks of `blockSize`: block b's data
/// moves while block b−1 computes, and a block's comm is its pivots' Eq. 9
/// step volumes summed. blockSize = 1 is the paper's PIO (evalModel(kPIO));
/// blockSize = N degenerates to SCB (one bulk exchange, then all
/// computation). Intermediate sizes trade pipelining overlap against fewer,
/// larger messages. The walk goes a line group at a time, and pivot k reads
/// row k and column k, so pivots up to the nearer end of their row group
/// and column group share one step volume; the blocks still close and add
/// one at a time, in pivot order, since adding v L times is not adding L·v
/// in floating point.
template <typename Q>
ModelResult evalPioBlocked(const Q& q, const Machine& machine, int blockSize,
                           Topology topology = Topology::kFullyConnected,
                           StarConfig star = {}) {
  requireThreeOwners(q);
  PUSHPART_CHECK_MSG(blockSize >= 1, "PIO block size must be positive");
  PUSHPART_CHECK_MSG(machine.ratio.valid(),
                     "invalid machine ratio " << machine.ratio.str());
  const int n = q.n();
  const double tsend = machine.sendElementSeconds;
  const double step = computeLoads(q, machine).step;
  const LineGroups<Q> rows(q, Axis::kRows);
  const LineGroups<Q> cols(q, Axis::kCols);
  ModelResult result;
  double total = 0.0;
  std::int64_t blockVolume = 0;
  int blockSteps = 0;      // pivots in the open block
  int prevBlockSteps = 0;  // 0 for the priming block: nothing to overlap
  for (int k = 0, r = 0, c = 0; k < n;) {
    const LineRun& row = rows[r];
    const LineRun& col = cols[c];
    const int end = std::min(row.end, col.end);
    const std::int64_t volume =
        detail::pioStepVolume(n, row, col, topology, star);
    for (; k < end; ++k) {
      blockVolume += volume;
      if (++blockSteps < blockSize && k + 1 < n) continue;
      // This block's exchange overlaps the previous block's compute.
      const double blockComm = tsend * static_cast<double>(blockVolume);
      total += std::max(blockComm, step * prevBlockSteps);
      result.commSeconds += blockComm;
      prevBlockSteps = blockSteps;
      blockVolume = 0;
      blockSteps = 0;
    }
    if (row.end == end) ++r;
    if (col.end == end) ++c;
  }
  total += step * prevBlockSteps;  // drain: compute the final block
  result.compSeconds = step * n;
  result.execSeconds = total;
  return result;
}

/// Evaluates the Eq. 2–9 model for `algo` on `q` — a Partition, a
/// BitPartition or a LineCounts. The partition's element counts drive
/// computation time; its row/column occupancy drives communication.
/// `machine.ratio` supplies processor speeds. The sums walk line groups
/// (one per line of a grid, one per run of a LineCounts); PIO, which is
/// evalPioBlocked at block size 1, adds once per pivot besides.
template <typename Q>
ModelResult evalModel(Algo algo, const Q& q, const Machine& machine,
                      Topology topology = Topology::kFullyConnected,
                      StarConfig star = {}) {
  if (algo == Algo::kPIO)
    return evalPioBlocked(q, machine, 1, topology, star);
  requireThreeOwners(q);
  PUSHPART_CHECK_MSG(machine.ratio.valid(),
                     "invalid machine ratio " << machine.ratio.str());
  const double tsend = machine.sendElementSeconds;
  const detail::CommVolumes vol =
      detail::routedVolumes(pairVolumes(q), topology, star);
  double comm = 0.0;
  if (algo == Algo::kSCB || algo == Algo::kSCO)
    comm = tsend * static_cast<double>(vol.serialTotal);
  else
    for (auto d : vol.perProc)
      comm = std::max(comm, tsend * static_cast<double>(d));
  return bulkResult(algo, comm, computeLoads(q, machine));
}

}  // namespace pushpart
