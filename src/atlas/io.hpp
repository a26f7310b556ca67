// Atlas persistence: a support/persist.hpp document whose two header
// records fix the grid and the build, one record per solved cell:
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
// A loaded cell certifies exactly like the freshly built one. The grid is
// validated (AtlasGridSpec::validate) before any cell is allocated, and a
// grid or info record that does not parse refuses the file. A cell whose
// fields are out of range is skipped and counted, and boundary flags are
// re-derived from the cells that did load, so the atlas never claims
// knowledge a flipped byte or a lost line destroyed.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>

#include "atlas/atlas.hpp"
#include "support/persist.hpp"

namespace pushpart {

struct AtlasLoadReport : LoadReport {
  std::shared_ptr<PlanAtlas> atlas;  ///< Null when the file was refused.
};

/// Serializes the atlas (solved cells only). The path variant publishes
/// durably (support/persist.hpp); both return cells written and throw
/// std::runtime_error on I/O failure.
std::size_t saveAtlas(const PlanAtlas& atlas, std::ostream& os);
std::size_t saveAtlas(const PlanAtlas& atlas, const std::string& path);

/// Non-throwing load: refusal and corruption come back in the report.
AtlasLoadReport tryLoadAtlas(std::istream& is);
AtlasLoadReport tryLoadAtlas(const std::string& path);

}  // namespace pushpart
