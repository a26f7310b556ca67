// The plan-surface atlas: a precomputed grid of solved plans over the
// canonical speed-ratio space (P_r, R_r), S_r = 1.
//
// The paper's Fig. 13 / E3 sweep shows the optimal-shape cost landscape over
// ratio space is smooth with only a few winner-crossover boundaries. The
// atlas exploits that: an offline builder (builder.hpp) solves every grid
// cell once — the same exhaustive-offline / cheap-online split production
// plan-cost estimators use — and the serving layer (serve/oracle.cpp) then
// answers search-tier requests for novel ratios by certified O(1) lookup
// instead of a live tier-B DFA batch.
//
// A cell stores the winning canonical shape at the cell's ratio, the
// winner's normalized Volume of Communication (VoC / n², the Fig. 13
// surface quantity — dimensionless and n-independent up to O(1/n) rounding,
// so the surface transfers across request sizes), the runner-up cost gap,
// and whether an offline tier-B batch confirmed the closed-form ranking.
// The builder snaps near-tied winners (e.g. Block- vs Traditional-Rectangle,
// whose closed forms are identical) onto a canonical representative, so
// boundary detection by neighbor-winner comparison flags genuine crossover
// fronts rather than integer-granularity noise.
//
// Lookup assigns a ratio to its nearest grid point deterministically
// (pure floor arithmetic on the %.6g-rounded canonical ratio — no epsilons,
// so cell assignment at cell edges is stable) and interpolates the cost
// surface bilinearly from the four surrounding grid points when they agree
// on the winner; otherwise it falls back to the nearest cell's value. The
// *certificate* — accepting the atlas answer only when re-costing at the
// exact requested ratio agrees with the surface to within a configured gap —
// lives with the consumer in serve/oracle.cpp; the atlas itself only reports
// what it knows and why a lookup missed.
//
// Thread safety: lookups take a shared lock; inserts (the speculative
// prefetcher, prefetch.hpp) take an exclusive lock and re-derive the
// affected boundary flags. Counts are lock-free Counters.
#pragma once

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "grid/ratio.hpp"
#include "model/algo.hpp"
#include "model/machine.hpp"
#include "model/topology.hpp"
#include "shapes/candidates.hpp"
#include "support/counter.hpp"

namespace pushpart {

/// A regular grid of ratio points: prSteps × rrSteps points spanning
/// [prMin, prMax] × [rrMin, rrMax] inclusive. Points with P_r < R_r are
/// invalid (the canonical form requires P_r >= R_r >= S_r = 1).
struct AtlasGridSpec {
  double prMin = 1.0;
  double prMax = 20.0;
  int prSteps = 20;  ///< Grid points along P_r (>= 2).
  double rrMin = 1.0;
  double rrMax = 10.0;
  int rrSteps = 10;  ///< Grid points along R_r (>= 2).

  double prStep() const { return (prMax - prMin) / (prSteps - 1); }
  double rrStep() const { return (rrMax - rrMin) / (rrSteps - 1); }

  /// The canonical ratio at grid point (i, j): {prMin + i·step, rrMin +
  /// j·step, 1}.
  Ratio ratioAt(int i, int j) const;

  /// Point indices in range and P_r >= R_r there (a solvable cell).
  bool validCell(int i, int j) const;

  std::size_t points() const {
    return static_cast<std::size_t>(prSteps) *
           static_cast<std::size_t>(rrSteps);
  }

  /// The most points validate() accepts, so a loaded header cannot size an
  /// unbounded allocation; far above any grid a caller builds.
  static constexpr std::size_t kMaxPoints = std::size_t{1} << 20;

  /// Throws std::invalid_argument on a degenerate grid (steps < 2,
  /// min >= max, bounds below 1) or one of more than kMaxPoints points.
  void validate() const;

  friend bool operator==(const AtlasGridSpec&, const AtlasGridSpec&) = default;
};

/// How the atlas the cell belongs to was built — granularity, algorithm,
/// topology and machine constants shared by every cell (the per-cell state
/// is the ratio), plus the offline search configuration.
struct AtlasBuildInfo {
  int n = 96;                ///< Grid granularity cells were solved at.
  Algo algo = Algo::kSCB;
  Topology topology = Topology::kFullyConnected;
  Machine machine;           ///< ratio field is ignored (per-cell state).
  bool searchBacked = false; ///< Cells carry an offline tier-B cross-check.
  int searchRuns = 0;        ///< Tier-B walks per cell when searchBacked.
  std::uint64_t seed = 1;    ///< Batch seed root (cell c uses seed + c).
  /// Winners within this percent of the best modeled time snap onto the
  /// smallest CandidateShape enum among them, so identical-cost shapes
  /// (Block- vs Traditional-Rectangle) cannot shimmer into fake boundaries
  /// through integer-granularity noise.
  double tieSnapPct = 1.0;

  friend bool operator==(const AtlasBuildInfo&, const AtlasBuildInfo&) =
      default;
};

/// Where a cell's solution came from.
enum class CellOrigin {
  kBuilt = 0,      ///< Offline builder.
  kPrefetched = 1, ///< Speculative background prefetch on a serving miss.
};

constexpr const char* cellOriginName(CellOrigin o) {
  switch (o) {
    case CellOrigin::kBuilt: return "built";
    case CellOrigin::kPrefetched: return "prefetched";
  }
  return "?";
}

/// One solved grid point of the plan surface.
struct AtlasCell {
  bool solved = false;
  /// A valid, solved 4-neighbor disagrees on the (snapped) winner: this cell
  /// sits on a winner-crossover front and is never served from the surface.
  bool boundary = false;
  CandidateShape shape = CandidateShape::kSquareCorner;  ///< Snapped winner.
  double normVoc = 0.0;      ///< Winner's VoC / n² at the build granularity.
  double execSeconds = 0.0;  ///< Winner's modeled time at the cell ratio.
  /// Cost gap to the best candidate outside the winner's tie group, in
  /// percent of the winner's time (capped at kMaxGapPct when every feasible
  /// candidate ties).
  double runnerUpGapPct = 0.0;
  /// How far the winner's VoC sits above the cell ratio's memory-independent
  /// communication lower bound (src/bounds) at the build granularity, in
  /// percent — the offline analogue of PlanAnswer::optimalityGapPct.
  double lowerBoundGapPct = 0.0;
  bool searchConfirmed = false;  ///< Offline tier-B batch confirmed ranking.
  CellOrigin origin = CellOrigin::kBuilt;

  static constexpr double kMaxGapPct = 1e9;

  friend bool operator==(const AtlasCell&, const AtlasCell&) = default;
};

/// Why a lookup could not produce a surface answer. kWinnerMismatch and
/// kGapExceeded are certificate verdicts recorded by the serving layer
/// (serve/oracle.cpp), not by PlanAtlas::lookup itself.
enum class AtlasMissReason {
  kNone = 0,
  kOutOfRange,      ///< Ratio outside the grid span.
  kUnsolved,        ///< Assigned cell invalid, unsolved, or build-failed.
  kBoundary,        ///< Assigned cell is on a winner-crossover front.
  kWinnerMismatch,  ///< Certificate: surface winner too far from exact best.
  kGapExceeded,     ///< Certificate: surface cost gap above the bound.
};

constexpr const char* atlasMissReasonName(AtlasMissReason r) {
  switch (r) {
    case AtlasMissReason::kNone: return "none";
    case AtlasMissReason::kOutOfRange: return "out-of-range";
    case AtlasMissReason::kUnsolved: return "unsolved";
    case AtlasMissReason::kBoundary: return "boundary";
    case AtlasMissReason::kWinnerMismatch: return "winner-mismatch";
    case AtlasMissReason::kGapExceeded: return "gap-exceeded";
  }
  return "?";
}

/// One lookup's outcome. On a hit, `shape` is the assigned cell's winner and
/// `interpNormVoc` the surface cost at the requested ratio — bilinear over
/// the four surrounding grid points when they are all solved, off-boundary
/// and agree on the winner; the nearest cell's own value otherwise.
struct AtlasLookup {
  bool hit = false;
  AtlasMissReason miss = AtlasMissReason::kNone;
  int i = -1;  ///< Assigned cell (valid for every miss except out-of-range).
  int j = -1;
  CandidateShape shape = CandidateShape::kSquareCorner;
  double interpNormVoc = 0.0;
  bool bilinear = false;
  bool searchConfirmed = false;
  CellOrigin origin = CellOrigin::kBuilt;
};

/// The atlas proper: grid spec + build provenance + cells, behind a
/// shared_mutex so concurrent serving lookups and background prefetch
/// inserts coexist.
class PlanAtlas {
 public:
  /// Validates the spec. Cells start unsolved.
  PlanAtlas(AtlasGridSpec spec, AtlasBuildInfo info);

  PlanAtlas(const PlanAtlas&) = delete;
  PlanAtlas& operator=(const PlanAtlas&) = delete;

  const AtlasGridSpec& spec() const { return spec_; }
  const AtlasBuildInfo& info() const { return info_; }

  /// Deterministic nearest-grid-point assignment (round half up, pure floor
  /// arithmetic — byte-identical inputs always land in the same cell).
  /// Returns false when the ratio lies outside the grid span.
  bool assign(const Ratio& ratio, int& i, int& j) const;

  /// Thread-safe surface lookup (see AtlasLookup). Counts one lookup plus
  /// the outcome on the atlas counters.
  AtlasLookup lookup(const Ratio& ratio) const;

  /// The cell at (i, j), or nullopt when out of range. Unsolved cells are
  /// returned (solved == false) so inspectors can distinguish "invalid"
  /// from "not built".
  std::optional<AtlasCell> cell(int i, int j) const;

  /// Installs (or replaces) a solved cell and re-derives the boundary flags
  /// of the cell and its 4-neighborhood. Throws std::invalid_argument when
  /// (i, j) is not a valid cell. Thread-safe (exclusive lock).
  void insert(int i, int j, AtlasCell cell);

  /// Recomputes every boundary flag from the current winners (the builder
  /// and the loader call this once after bulk insertion).
  void markBoundaries();

  std::size_t solvedCells() const;

  /// Coordinates of every boundary-flagged cell, row-major order — the
  /// `pushpart atlas inspect` boundary report.
  std::vector<std::pair<int, int>> boundaryCells() const;

  struct Counters {
    Counter lookups;
    Counter hits;
    Counter outOfRange;
    Counter unsolved;
    Counter boundary;
    Counter inserts;
  };
  Counters counters() const { return counters_; }

 private:
  std::size_t indexOf(int i, int j) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(spec_.rrSteps) +
           static_cast<std::size_t>(j);
  }
  /// Boundary rule (callers hold the exclusive lock): a solved cell is
  /// boundary iff some valid, solved 4-neighbor carries a different winner.
  void deriveBoundaryLocked(int i, int j);

  AtlasGridSpec spec_;
  AtlasBuildInfo info_;
  mutable std::shared_mutex mutex_;
  std::vector<AtlasCell> cells_;

  /// Live counts; lookup() is logically const but counts itself.
  mutable Counters counters_;
};

}  // namespace pushpart
