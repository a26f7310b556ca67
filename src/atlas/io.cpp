#include "atlas/io.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "support/fnv.hpp"

namespace pushpart {

namespace {

// v2 added the per-cell communication lower-bound gap (lowerBoundGapPct);
// v1 files are refused rather than silently defaulting the gap to zero.
constexpr const char* kMagic = "pushpart-atlas v2";

// The v2 checksums are FNV-1a started from 1469598103934665603, the offset
// basis's decimal short of its last digit. Kept: changing it would fail
// every atlas file already written.
constexpr std::uint64_t kChecksumBasis = 1469598103934665603ull;

std::string formatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string checksumHex(const std::string& payload) {
  char buf[20];
  const std::uint64_t sum = fnv1a(payload, kChecksumBasis);
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(sum));
  return buf;
}

std::string cellPayload(int i, int j, const AtlasCell& cell) {
  std::ostringstream os;
  os << i << ' ' << j << ' ' << (cell.boundary ? 1 : 0) << ' '
     << static_cast<int>(cell.shape) << ' ' << formatDouble(cell.normVoc)
     << ' ' << formatDouble(cell.execSeconds) << ' '
     << formatDouble(cell.runnerUpGapPct) << ' '
     << formatDouble(cell.lowerBoundGapPct) << ' '
     << (cell.searchConfirmed ? 1 : 0) << ' '
     << static_cast<int>(cell.origin);
  return os.str();
}

bool parseCellPayload(const std::string& payload, const AtlasGridSpec& spec,
                      int& i, int& j, AtlasCell& cell) {
  std::istringstream is(payload);
  int boundary = -1, shape = -1, confirmed = -1, origin = -1;
  if (!(is >> i >> j >> boundary >> shape >> cell.normVoc >>
        cell.execSeconds >> cell.runnerUpGapPct >> cell.lowerBoundGapPct >>
        confirmed >> origin))
    return false;
  std::string trailing;
  if (is >> trailing) return false;
  if (!spec.validCell(i, j)) return false;
  if (boundary < 0 || boundary > 1) return false;
  if (shape < 0 || shape >= kNumCandidates) return false;
  if (confirmed < 0 || confirmed > 1) return false;
  if (origin < 0 || origin > 1) return false;
  if (!std::isfinite(cell.normVoc) || cell.normVoc < 0.0) return false;
  if (!std::isfinite(cell.execSeconds) || cell.execSeconds < 0.0) return false;
  if (!std::isfinite(cell.runnerUpGapPct) || cell.runnerUpGapPct < 0.0)
    return false;
  if (!std::isfinite(cell.lowerBoundGapPct) || cell.lowerBoundGapPct < 0.0)
    return false;
  cell.solved = true;
  cell.boundary = boundary == 1;
  cell.shape = static_cast<CandidateShape>(shape);
  cell.searchConfirmed = confirmed == 1;
  cell.origin = static_cast<CellOrigin>(origin);
  return true;
}

}  // namespace

std::size_t saveAtlas(const PlanAtlas& atlas, std::ostream& os) {
  const AtlasGridSpec& spec = atlas.spec();
  const AtlasBuildInfo& info = atlas.info();
  os << kMagic << '\n';
  os << "grid " << formatDouble(spec.prMin) << ' ' << formatDouble(spec.prMax)
     << ' ' << spec.prSteps << ' ' << formatDouble(spec.rrMin) << ' '
     << formatDouble(spec.rrMax) << ' ' << spec.rrSteps << '\n';
  os << "info " << info.n << ' ' << static_cast<int>(info.algo) << ' '
     << static_cast<int>(info.topology) << ' ' << (info.searchBacked ? 1 : 0)
     << ' ' << info.searchRuns << ' ' << info.seed << ' '
     << formatDouble(info.tieSnapPct) << ' '
     << formatDouble(info.machine.alphaSeconds) << ' '
     << formatDouble(info.machine.sendElementSeconds) << ' '
     << formatDouble(info.machine.baseFlopSeconds) << '\n';

  std::size_t written = 0;
  std::ostringstream body;
  for (int i = 0; i < spec.prSteps; ++i) {
    for (int j = 0; j < spec.rrSteps; ++j) {
      const std::optional<AtlasCell> cell = atlas.cell(i, j);
      if (!cell || !cell->solved) continue;
      const std::string payload = cellPayload(i, j, *cell);
      body << "c " << checksumHex(payload) << ' ' << payload << '\n';
      ++written;
    }
  }
  os << "cells " << written << '\n' << body.str();
  if (!os) throw std::runtime_error("saveAtlas: stream write failed");
  return written;
}

std::size_t saveAtlas(const PlanAtlas& atlas, const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::size_t written = 0;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("saveAtlas: cannot open " + tmp);
    written = saveAtlas(atlas, out);
    out.flush();
    if (!out)
      throw std::runtime_error("saveAtlas: write to " + tmp + " failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("saveAtlas: cannot rename " + tmp + " to " +
                             path);
  }
  return written;
}

AtlasLoadReport tryLoadAtlas(std::istream& is) {
  AtlasLoadReport report;
  std::string magic;
  std::getline(is, magic);
  if (!magic.empty() && magic.back() == '\r') magic.pop_back();
  if (magic != kMagic) {
    report.versionRefused = true;
    report.error = "loadAtlas: unsupported atlas version '" + magic +
                   "' (expected '" + std::string(kMagic) + "')";
    return report;
  }

  AtlasGridSpec spec;
  AtlasBuildInfo info;
  {
    std::string line, tag;
    if (!std::getline(is, line)) {
      report.error = "loadAtlas: missing grid line";
      return report;
    }
    std::istringstream ls(line);
    if (!(ls >> tag >> spec.prMin >> spec.prMax >> spec.prSteps >>
          spec.rrMin >> spec.rrMax >> spec.rrSteps) ||
        tag != "grid") {
      report.error = "loadAtlas: malformed grid line";
      return report;
    }
  }
  {
    std::string line, tag;
    int algo = -1, topology = -1, searchBacked = -1;
    if (!std::getline(is, line)) {
      report.error = "loadAtlas: missing info line";
      return report;
    }
    std::istringstream ls(line);
    if (!(ls >> tag >> info.n >> algo >> topology >> searchBacked >>
          info.searchRuns >> info.seed >> info.tieSnapPct >>
          info.machine.alphaSeconds >> info.machine.sendElementSeconds >>
          info.machine.baseFlopSeconds) ||
        tag != "info" || algo < 0 || algo > 4 || topology < 0 ||
        topology > 1 || searchBacked < 0 || searchBacked > 1) {
      report.error = "loadAtlas: malformed info line";
      return report;
    }
    info.algo = static_cast<Algo>(algo);
    info.topology = static_cast<Topology>(topology);
    info.searchBacked = searchBacked == 1;
  }

  try {
    report.atlas = std::make_shared<PlanAtlas>(spec, info);
  } catch (const std::exception& e) {
    report.error = std::string("loadAtlas: invalid header: ") + e.what();
    return report;
  }

  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line.rfind("cells ", 0) == 0) continue;
    if (line.rfind("c ", 0) != 0 || line.size() < 2 + 16 + 2 ||
        line[18] != ' ') {
      ++report.skipped;
      continue;
    }
    const std::string checksum = line.substr(2, 16);
    const std::string payload = line.substr(19);
    if (checksum != checksumHex(payload)) {
      ++report.skipped;
      continue;
    }
    int i = -1, j = -1;
    AtlasCell cell;
    if (!parseCellPayload(payload, spec, i, j, cell)) {
      ++report.skipped;
      continue;
    }
    report.atlas->insert(i, j, cell);
    ++report.loaded;
  }
  // Flags are re-derived from the winners that actually loaded: a skipped
  // cell must not leave its neighbors claiming a boundary (or its absence)
  // that the surviving data cannot support.
  report.atlas->markBoundaries();
  return report;
}

AtlasLoadReport tryLoadAtlas(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    AtlasLoadReport report;
    report.error = "loadAtlas: cannot open " + path;
    return report;
  }
  return tryLoadAtlas(in);
}

}  // namespace pushpart
