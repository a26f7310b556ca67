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
// grid: its sums do not grow with N, except PIO's one add per pivot.
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

/// Evaluates the Eq. 2–9 model for `algo` on `q` — a Partition, a
/// BitPartition or a LineCounts. The partition's element counts drive
/// computation time; its row/column occupancy drives communication.
/// `machine.ratio` supplies processor speeds. The sums walk line groups
/// (one per line of a grid, one per run of a LineCounts); PIO adds once per
/// pivot besides.
template <typename Q>
ModelResult evalModel(Algo algo, const Q& q, const Machine& machine,
                      Topology topology = Topology::kFullyConnected,
                      StarConfig star = {}) {
  requireThreeOwners(q);
  PUSHPART_CHECK_MSG(machine.ratio.valid(),
                     "invalid machine ratio " << machine.ratio.str());
  const int n = q.n();
  const double tsend = machine.sendElementSeconds;
  const ComputeLoads loads = computeLoads(q, machine);
  if (algo != Algo::kPIO) {
    const detail::CommVolumes vol =
        detail::routedVolumes(pairVolumes(q), topology, star);
    double comm = 0.0;
    if (algo == Algo::kSCB || algo == Algo::kSCO)
      comm = tsend * static_cast<double>(vol.serialTotal);
    else
      for (auto d : vol.perProc)
        comm = std::max(comm, tsend * static_cast<double>(d));
    return bulkResult(algo, comm, loads);
  }

  // PIO. Per-step comm: pivot row/column k changes owner mix per k (Eq. 9).
  // Pivot k reads row k and column k, so the pivots up to the nearer end of
  // their row group and column group share one step volume. They still add
  // one at a time, in pivot order: adding v L times is not adding L·v in
  // floating point.
  const LineGroups<Q> rows(q, Axis::kRows);
  const LineGroups<Q> cols(q, Axis::kCols);
  ModelResult result;
  double total = 0.0;
  for (int k = 0, r = 0, c = 0; k < n;) {
    const LineRun& row = rows[r];
    const LineRun& col = cols[c];
    const int end = std::min(row.end, col.end);
    const double stepComm =
        tsend * static_cast<double>(
                    detail::pioStepVolume(n, row, col, topology, star));
    const double paced = std::max(stepComm, loads.step);
    for (; k < end; ++k) {
      total += k == 0 ? stepComm : paced;  // k = 0: the priming send
      result.commSeconds += stepComm;
    }
    if (row.end == end) ++r;
    if (col.end == end) ++c;
  }
  total += loads.step;  // the drain step computes the final pivot
  result.compSeconds = loads.step * n;
  result.execSeconds = total;
  return result;
}

/// Blocked PIO (paper §II: data is sent "a row and a column — or k rows and
/// columns — at a time"): pivots are grouped into blocks of `blockSize`;
/// block b's data moves while block b−1 computes. blockSize = 1 reproduces
/// evalModel(kPIO); blockSize = N degenerates to SCB (one bulk exchange,
/// then all computation). Intermediate sizes trade pipelining overlap
/// against fewer, larger messages.
ModelResult evalPioBlocked(const Partition& q, const Machine& machine,
                           int blockSize,
                           Topology topology = Topology::kFullyConnected,
                           StarConfig star = {});

}  // namespace pushpart
