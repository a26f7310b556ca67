#include "atlas/io.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace pushpart {

namespace {

// v2 added the per-cell communication lower-bound gap (lowerBoundGapPct);
// v3 checksums the grid and info header records and hashes from the
// standard FNV-1a basis (v2's was one decimal digit short). Older files are
// refused: a v1 file lacks the gap, and a v2 header could be corrupted
// without any check noticing.
const RecordFormat kFormat{
    "atlas", "pushpart-atlas v3", {"grid", "info"}, "cells", "c"};

AtlasGridSpec parseGrid(const std::string& payload) {
  AtlasGridSpec spec;
  if (!parseFields(payload, spec.prMin, spec.prMax, spec.prSteps, spec.rrMin,
                   spec.rrMax, spec.rrSteps))
    throw std::runtime_error("malformed grid record");
  return spec;
}

AtlasBuildInfo parseInfo(const std::string& payload) {
  AtlasBuildInfo info;
  int algo = -1, topology = -1;
  if (!parseFields(payload, info.n, algo, topology, info.searchBacked,
                   info.searchRuns, info.seed, info.tieSnapPct,
                   info.machine.alphaSeconds, info.machine.sendElementSeconds,
                   info.machine.baseFlopSeconds) ||
      algo < 0 || algo > 4 || topology < 0 || topology > 1)
    throw std::runtime_error("malformed info record");
  info.algo = static_cast<Algo>(algo);
  info.topology = static_cast<Topology>(topology);
  return info;
}

bool parseCell(const std::string& payload, const AtlasGridSpec& spec, int& i,
               int& j, AtlasCell& cell) {
  int shape = -1, origin = -1;
  if (!parseFields(payload, i, j, cell.boundary, shape, cell.normVoc,
                   cell.execSeconds, cell.runnerUpGapPct,
                   cell.lowerBoundGapPct, cell.searchConfirmed, origin))
    return false;
  if (!spec.validCell(i, j)) return false;
  if (shape < 0 || shape >= kNumCandidates) return false;
  if (origin < 0 || origin > 1) return false;
  if (!std::isfinite(cell.normVoc) || cell.normVoc < 0.0) return false;
  if (!std::isfinite(cell.execSeconds) || cell.execSeconds < 0.0) return false;
  if (!std::isfinite(cell.runnerUpGapPct) || cell.runnerUpGapPct < 0.0)
    return false;
  if (!std::isfinite(cell.lowerBoundGapPct) || cell.lowerBoundGapPct < 0.0)
    return false;
  cell.solved = true;
  cell.shape = static_cast<CandidateShape>(shape);
  cell.origin = static_cast<CellOrigin>(origin);
  return true;
}

}  // namespace

std::size_t saveAtlas(const PlanAtlas& atlas, std::ostream& os) {
  const AtlasGridSpec& spec = atlas.spec();
  const AtlasBuildInfo& info = atlas.info();
  // The count line comes first, so the solved cells are copied out before
  // writing: a prefetch insert between counting and writing would break it.
  struct Solved {
    int i, j;
    AtlasCell cell;
  };
  std::vector<Solved> solved;
  for (int i = 0; i < spec.prSteps; ++i)
    for (int j = 0; j < spec.rrSteps; ++j)
      if (const std::optional<AtlasCell> cell = atlas.cell(i, j);
          cell && cell->solved)
        solved.push_back({i, j, *cell});
  writeRecords(
      os, kFormat,
      {joinFields(spec.prMin, spec.prMax, spec.prSteps, spec.rrMin,
                  spec.rrMax, spec.rrSteps),
       joinFields(info.n, static_cast<int>(info.algo),
                  static_cast<int>(info.topology), info.searchBacked,
                  info.searchRuns, info.seed, info.tieSnapPct,
                  info.machine.alphaSeconds, info.machine.sendElementSeconds,
                  info.machine.baseFlopSeconds)},
      solved.size(), [&](std::size_t k) {
        const auto& [i, j, cell] = solved[k];
        return joinFields(i, j, cell.boundary, static_cast<int>(cell.shape),
                          cell.normVoc, cell.execSeconds, cell.runnerUpGapPct,
                          cell.lowerBoundGapPct, cell.searchConfirmed,
                          static_cast<int>(cell.origin));
      });
  return solved.size();
}

std::size_t saveAtlas(const PlanAtlas& atlas, const std::string& path) {
  std::ostringstream text;
  const std::size_t written = saveAtlas(atlas, text);
  publishFile(path, text.str());
  return written;
}

AtlasLoadReport tryLoadAtlas(std::istream& is) {
  std::shared_ptr<PlanAtlas> atlas;
  const LoadReport read = readRecords(
      is, kFormat,
      [&](const std::vector<std::string>& header) {
        // The spec is validated before the cell vector is sized.
        atlas = std::make_shared<PlanAtlas>(parseGrid(header[0]),
                                            parseInfo(header[1]));
      },
      [&](const std::string& payload) {
        int i = -1, j = -1;
        AtlasCell cell;
        if (!parseCell(payload, atlas->spec(), i, j, cell)) return false;
        // The saved boundary flag is re-derived from the winners that
        // load, so a skipped cell leaves no neighbor claiming a boundary (or
        // its absence) that the surviving data cannot support.
        atlas->insert(i, j, cell);
        return true;
      });
  if (!read.ok()) return {read, nullptr};
  return {read, std::move(atlas)};
}

AtlasLoadReport tryLoadAtlas(const std::string& path) {
  return loadFile<AtlasLoadReport>(
      path, [](std::istream& in) { return tryLoadAtlas(in); });
}

}  // namespace pushpart
