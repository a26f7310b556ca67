#include "atlas/io.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "support/fnv.hpp"

namespace pushpart {

namespace {

// v2 added the per-cell communication lower-bound gap (lowerBoundGapPct);
// v3 checksums the grid and info header records and hashes from the
// standard FNV-1a basis (v2's was one decimal digit short). Older files are
// refused: a v1 file lacks the gap, and a v2 header could be corrupted
// without any check noticing.
constexpr const char* kMagic = "pushpart-atlas v3";

std::string formatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string checksumHex(const std::string& payload) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a(payload)));
  return buf;
}

/// "<tag> <fnv1a-16-hex> <payload>".
std::string record(const char* tag, const std::string& payload) {
  return std::string(tag) + ' ' + checksumHex(payload) + ' ' + payload;
}

/// The payload of a `tag` record whose checksum verifies, else nullopt.
std::optional<std::string> verifiedPayload(const std::string& line,
                                           const std::string& tag) {
  const std::size_t at = tag.size() + 1;  // first checksum digit
  if (line.size() < at + 16 + 1 || line.compare(0, at - 1, tag) != 0 ||
      line[at - 1] != ' ' || line[at + 16] != ' ')
    return std::nullopt;
  std::string payload = line.substr(at + 17);
  if (line.compare(at, 16, checksumHex(payload)) != 0) return std::nullopt;
  return payload;
}

/// The N of a "cells <N>" line, else nullopt.
std::optional<std::size_t> parseCellCount(const std::string& line) {
  std::istringstream is(line);
  std::string tag, trailing;
  long long count = -1;
  if (!(is >> tag >> count) || tag != "cells" || count < 0 || is >> trailing)
    return std::nullopt;
  return static_cast<std::size_t>(count);
}

/// Reads one line, dropping a trailing '\r'.
bool readLine(std::istream& is, std::string& line) {
  if (!std::getline(is, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
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
  std::ostringstream gridText;
  gridText << formatDouble(spec.prMin) << ' ' << formatDouble(spec.prMax)
           << ' ' << spec.prSteps << ' ' << formatDouble(spec.rrMin) << ' '
           << formatDouble(spec.rrMax) << ' ' << spec.rrSteps;
  os << record("grid", gridText.str()) << '\n';
  std::ostringstream infoText;
  infoText << info.n << ' ' << static_cast<int>(info.algo) << ' '
           << static_cast<int>(info.topology) << ' '
           << (info.searchBacked ? 1 : 0) << ' ' << info.searchRuns << ' '
           << info.seed << ' ' << formatDouble(info.tieSnapPct) << ' '
           << formatDouble(info.machine.alphaSeconds) << ' '
           << formatDouble(info.machine.sendElementSeconds) << ' '
           << formatDouble(info.machine.baseFlopSeconds);
  os << record("info", infoText.str()) << '\n';

  std::size_t written = 0;
  std::ostringstream body;
  for (int i = 0; i < spec.prSteps; ++i) {
    for (int j = 0; j < spec.rrSteps; ++j) {
      const std::optional<AtlasCell> cell = atlas.cell(i, j);
      if (!cell || !cell->solved) continue;
      const std::string payload = cellPayload(i, j, *cell);
      body << record("c", payload) << '\n';
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
  readLine(is, magic);
  if (magic != kMagic) {
    report.versionRefused = true;
    report.error = "loadAtlas: unsupported atlas version '" + magic +
                   "' (expected '" + std::string(kMagic) + "')";
    return report;
  }

  AtlasGridSpec spec;
  AtlasBuildInfo info;
  std::string line;
  {
    std::optional<std::string> payload;
    if (readLine(is, line)) payload = verifiedPayload(line, "grid");
    std::istringstream ps(payload.value_or(""));
    std::string trailing;
    if (!payload ||
        !(ps >> spec.prMin >> spec.prMax >> spec.prSteps >> spec.rrMin >>
          spec.rrMax >> spec.rrSteps) ||
        ps >> trailing) {
      report.error = "loadAtlas: missing, corrupt or malformed grid record";
      return report;
    }
  }
  {
    std::optional<std::string> payload;
    if (readLine(is, line)) payload = verifiedPayload(line, "info");
    std::istringstream ps(payload.value_or(""));
    std::string trailing;
    int algo = -1, topology = -1, searchBacked = -1;
    if (!payload ||
        !(ps >> info.n >> algo >> topology >> searchBacked >>
          info.searchRuns >> info.seed >> info.tieSnapPct >>
          info.machine.alphaSeconds >> info.machine.sendElementSeconds >>
          info.machine.baseFlopSeconds) ||
        ps >> trailing || algo < 0 || algo > 4 || topology < 0 ||
        topology > 1 || searchBacked < 0 || searchBacked > 1) {
      report.error = "loadAtlas: missing, corrupt or malformed info record";
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

  // The declared count exposes a file cut after a complete line: every cell
  // it lost is counted as skipped. Without a readable count, the count line
  // itself is the one loss the loader can see.
  std::optional<std::size_t> declared;
  if (readLine(is, line)) declared = parseCellCount(line);
  if (!declared) ++report.skipped;
  std::size_t records = 0;
  while (readLine(is, line)) {
    if (line.empty()) continue;
    ++records;
    const std::optional<std::string> payload = verifiedPayload(line, "c");
    int i = -1, j = -1;
    AtlasCell cell;
    if (!payload || !parseCellPayload(*payload, spec, i, j, cell)) {
      ++report.skipped;
      continue;
    }
    report.atlas->insert(i, j, cell);
    ++report.loaded;
  }
  if (declared && *declared > records) report.skipped += *declared - records;
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
