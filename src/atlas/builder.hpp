// Offline atlas construction: solve every valid grid cell of the ratio
// space once, snap near-tied winners, mark crossover boundaries.
//
// Each cell is an independent solve (the sweep is embarrassingly parallel,
// like the paper's §VII cluster fan-out): rank the six canonical candidates
// at the build granularity with the cell's ratio, optionally cross-check the
// ranking with a budgeted tier-B DFA batch (seeded per cell, so a rebuild is
// bit-reproducible regardless of thread interleaving), and record the
// snapped winner plus its measured normalized VoC. Each insert keeps the
// boundary flags exact, so the finished atlas needs no further pass. The
// cross-check is searchEvidence, the serving oracle's tier B too.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "atlas/atlas.hpp"
#include "dfa/batch.hpp"

namespace pushpart {

/// What a tier-B batch says about a candidate ranking (the paper's §VII
/// cross-check): the fastest condensed final the walks reached.
struct SearchEvidence {
  int completed = 0;             ///< Walks that reached an accept state.
  double bestExecSeconds = 0.0;  ///< Fastest modeled final (0 when none).
  std::int64_t bestVoc = 0;      ///< That final's VoC.
  BatchSummary summary;

  /// True when some walk completed and none modeled faster than the
  /// candidate: the search confirms the ranking. An empty batch confirms
  /// nothing.
  bool confirms(double candidateExecSeconds) const {
    return completed > 0 && bestExecSeconds >= candidateExecSeconds;
  }
};

/// Runs `batch` and models every final under (algo, machine, topology,
/// star), keeping the fastest (the first delivered on a tie). A cancelled
/// walk never reached an accept state, so it is not evidence. `onRun`, when
/// set, sees the count of runs delivered so far after each delivery,
/// cancelled ones included.
SearchEvidence searchEvidence(const BatchOptions& batch, Algo algo,
                              const Machine& machine, Topology topology,
                              StarConfig star,
                              const std::function<void(int)>& onRun = {});

struct AtlasBuildOptions {
  AtlasGridSpec spec;
  AtlasBuildInfo info;
  /// Worker threads for the cell sweep. 0 = hardware_concurrency.
  int threads = 0;
  /// Progress hook: invoked (serialized) after each cell attempt with cells
  /// done so far and the total to do.
  std::function<void(std::size_t done, std::size_t total)> onCell;
};

struct AtlasBuildReport {
  std::size_t attempted = 0;  ///< Valid cells in the grid.
  std::size_t solved = 0;
  std::size_t failed = 0;     ///< No feasible candidate (left unsolved).
  std::size_t boundary = 0;   ///< Boundary-flagged cells after marking.
  std::size_t searchConfirmed = 0;
  double seconds = 0.0;
};

/// Solves one grid cell: ranked candidates, winner snapping per
/// info.tieSnapPct, measured VoC / n², optional per-cell tier-B batch
/// (seed = info.seed + cell index). Returns nullopt when no candidate is
/// feasible at the cell's ratio. Exposed for the serving-time prefetcher,
/// which must produce cells bit-identical to the offline builder's.
std::optional<AtlasCell> solveAtlasCell(const AtlasGridSpec& spec,
                                        const AtlasBuildInfo& info, int i,
                                        int j);

/// Builds a complete atlas: every valid cell solved (in parallel) and
/// inserted. Throws std::invalid_argument on a bad spec/info.
std::shared_ptr<PlanAtlas> buildAtlas(const AtlasBuildOptions& options,
                                      AtlasBuildReport* report = nullptr);

}  // namespace pushpart
