// Versioned, checksummed atlas persistence (the snapshot discipline of
// serve/snapshot.hpp applied to the plan surface).
//
//   pushpart-atlas v3
//   grid <fnv1a-16-hex> <prMin> <prMax> <prSteps> <rrMin> <rrMax> <rrSteps>
//   info <fnv1a-16-hex> <n> <algo> <topology> <searchBacked> <searchRuns>
//        <seed> <tieSnapPct> <alphaSeconds> <sendElementSeconds>
//        <baseFlopSeconds>
//   cells <count>
//   c <fnv1a-16-hex> <i> <j> <boundary> <shape> <normVoc> <execSeconds>
//        <runnerUpGapPct> <lowerBoundGapPct> <searchConfirmed> <origin>
//
// Every record's checksum is FNV-1a over the payload after it. Doubles
// travel as %.17g, so build -> save -> load -> save is byte-identical and a
// loaded cell certifies exactly like the freshly built one. Writing is
// crash-safe (tmp + atomic rename). A wrong magic/version, or a grid/info
// record that fails its checksum or parse, refuses the whole file — a
// header that maps every cell to the wrong ratio, or a guessed future
// format, would serve wrong plans silently. Per-cell corruption is
// tolerated: a cell whose checksum or field ranges don't verify is skipped
// and counted, as is every declared cell the file no longer holds (a file
// cut after a complete line), and boundary flags are re-derived from the
// cells that did load, so the atlas never claims knowledge a flipped byte
// or a lost line destroyed.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>

#include "atlas/atlas.hpp"

namespace pushpart {

struct AtlasLoadReport {
  std::shared_ptr<PlanAtlas> atlas;  ///< Null when the file was refused.
  std::size_t loaded = 0;            ///< Cells restored.
  /// Corrupt cells left behind, plus declared cells missing from the file
  /// (and a missing or malformed `cells` line).
  std::size_t skipped = 0;
  bool versionRefused = false;
  std::string error;  ///< Non-empty on refusal/unreadable file.

  bool ok() const { return atlas != nullptr && error.empty(); }
  /// Accepted and every cell verified.
  bool clean() const { return ok() && skipped == 0; }
};

/// Serializes the atlas (solved cells only). The path variant writes
/// <path>.tmp then renames atomically; both return cells written and throw
/// std::runtime_error on I/O failure.
std::size_t saveAtlas(const PlanAtlas& atlas, std::ostream& os);
std::size_t saveAtlas(const PlanAtlas& atlas, const std::string& path);

/// Non-throwing load: refusal and corruption come back in the report.
AtlasLoadReport tryLoadAtlas(std::istream& is);
AtlasLoadReport tryLoadAtlas(const std::string& path);

}  // namespace pushpart
