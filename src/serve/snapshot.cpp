#include "serve/snapshot.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "shapes/candidates.hpp"
#include "support/fnv.hpp"

namespace pushpart {

namespace {

// v2 added the atlas provenance fields (atlasServed, atlasCertGapPct,
// atlasI, atlasJ); v3 added the family/lower-bound evidence (family,
// familyCandidate, optimalityGapPct). Older files are refused — a silently
// restored answer missing its provenance would misreport the sources
// breakdown (or claim a zero gap it never computed) forever.
constexpr const char* kMagic = "pushpart-plancache v3";

std::string formatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The answer's 23 fields, space-separated, in a fixed order the loader
/// mirrors. Booleans and enums travel as integers; the familyCandidate
/// token is space-free by construction (serialized as "-" when empty).
std::string payloadFor(const PlanCache::SnapshotEntry& entry) {
  const PlanAnswer& a = entry.answer;
  std::ostringstream os;
  os << entry.key << ' ' << static_cast<int>(a.shape) << ' '
     << formatDouble(a.model.commSeconds) << ' '
     << formatDouble(a.model.overlapSeconds) << ' '
     << formatDouble(a.model.compSeconds) << ' '
     << formatDouble(a.model.execSeconds) << ' ' << a.voc << ' '
     << static_cast<int>(a.tier) << ' ' << static_cast<int>(a.servedTier)
     << ' ' << static_cast<int>(a.degrade) << ' ' << (a.truncated ? 1 : 0)
     << ' ' << formatDouble(a.solveSeconds) << ' ' << a.searchRuns << ' '
     << a.searchCompleted << ' ' << a.searchBestVoc << ' '
     << formatDouble(a.searchBestExecSeconds) << ' '
     << (a.searchConfirmedCandidate ? 1 : 0) << ' '
     << (a.atlasServed ? 1 : 0) << ' ' << formatDouble(a.atlasCertGapPct)
     << ' ' << a.atlasI << ' ' << a.atlasJ << ' '
     << static_cast<int>(a.family) << ' '
     << (a.familyCandidate.empty() ? "-" : a.familyCandidate) << ' '
     << formatDouble(a.optimalityGapPct);
  return os.str();
}

std::string checksumHex(const std::string& payload) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a(payload)));
  return buf;
}

/// Parses one payload back into an entry. Returns false on any field-count,
/// numeric-format or enum-range problem — the caller skips the entry.
bool parsePayload(const std::string& payload,
                  PlanCache::SnapshotEntry& entry) {
  std::istringstream is(payload);
  int shape = -1, tier = -1, servedTier = -1, degrade = -1, truncated = -1,
      confirmed = -1, atlasServed = -1, family = -1;
  std::string familyCandidate;
  PlanAnswer a;
  if (!(is >> entry.key >> shape >> a.model.commSeconds >>
        a.model.overlapSeconds >> a.model.compSeconds >>
        a.model.execSeconds >> a.voc >> tier >> servedTier >> degrade >>
        truncated >> a.solveSeconds >> a.searchRuns >> a.searchCompleted >>
        a.searchBestVoc >> a.searchBestExecSeconds >> confirmed >>
        atlasServed >> a.atlasCertGapPct >> a.atlasI >> a.atlasJ >> family >>
        familyCandidate >> a.optimalityGapPct))
    return false;
  std::string trailing;
  if (is >> trailing) return false;
  if (shape < 0 || shape >= kNumCandidates) return false;
  if (tier < 0 || tier > 1 || servedTier < 0 || servedTier > 1) return false;
  if (degrade < 0 ||
      degrade > static_cast<int>(DegradeReason::kLate))
    return false;
  if (truncated < 0 || truncated > 1 || confirmed < 0 || confirmed > 1)
    return false;
  if (atlasServed < 0 || atlasServed > 1) return false;
  if (!(a.atlasCertGapPct >= 0.0)) return false;
  if (a.atlasI < -1 || a.atlasJ < -1) return false;
  if (family < 0 || family >= kNumFamilies) return false;
  if (!(a.optimalityGapPct >= 0.0)) return false;
  a.family = static_cast<FamilyId>(family);
  a.familyCandidate = familyCandidate == "-" ? "" : familyCandidate;
  a.shape = static_cast<CandidateShape>(shape);
  a.tier = static_cast<PlanTier>(tier);
  a.servedTier = static_cast<PlanTier>(servedTier);
  a.degrade = static_cast<DegradeReason>(degrade);
  a.truncated = truncated == 1;
  a.searchConfirmedCandidate = confirmed == 1;
  a.atlasServed = atlasServed == 1;
  entry.answer = a;
  return true;
}

/// The N of an "entries <N>" line, else nullopt.
std::optional<std::size_t> parseEntryCount(const std::string& line) {
  std::istringstream is(line);
  std::string tag, trailing;
  long long count = -1;
  if (!(is >> tag >> count) || tag != "entries" || count < 0 ||
      is >> trailing)
    return std::nullopt;
  return static_cast<std::size_t>(count);
}

/// Reads one line, dropping a trailing '\r'.
bool readLine(std::istream& is, std::string& line) {
  if (!std::getline(is, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

}  // namespace

std::size_t savePlanCacheSegment(
    const std::vector<PlanCache::SnapshotEntry>& entries, std::ostream& os) {
  os << kMagic << '\n';
  os << "entries " << entries.size() << '\n';
  for (const auto& entry : entries) {
    const std::string payload = payloadFor(entry);
    os << "e " << checksumHex(payload) << ' ' << payload << '\n';
  }
  if (!os)
    throw std::runtime_error("savePlanCacheSnapshot: stream write failed");
  return entries.size();
}

std::size_t savePlanCacheSnapshot(const PlanCache& cache, std::ostream& os) {
  return savePlanCacheSegment(cache.exportEntries(), os);
}

std::size_t savePlanCacheSnapshot(const PlanCache& cache,
                                  const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::size_t written = 0;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out)
      throw std::runtime_error("savePlanCacheSnapshot: cannot open " + tmp);
    written = savePlanCacheSnapshot(cache, out);
    out.flush();
    if (!out)
      throw std::runtime_error("savePlanCacheSnapshot: write to " + tmp +
                               " failed");
  }
  // Atomic publish: readers see either the old snapshot or the new one,
  // never a half-written file.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("savePlanCacheSnapshot: cannot rename " + tmp +
                             " to " + path);
  }
  return written;
}

SnapshotLoadReport tryLoadPlanCacheSnapshot(PlanCache& cache,
                                            std::istream& is) {
  SnapshotLoadReport report;
  std::string magic;
  readLine(is, magic);
  if (magic != kMagic) {
    report.versionRefused = true;
    report.error = "loadPlanCacheSnapshot: unsupported snapshot version '" +
                   magic + "' (expected '" + std::string(kMagic) + "')";
    return report;
  }
  // The declared count exposes a file cut after a complete line: every
  // entry it lost is counted as skipped. Without a readable count, the
  // count line itself is the one loss the loader can see.
  std::string line;
  std::optional<std::size_t> declared;
  if (readLine(is, line)) declared = parseEntryCount(line);
  if (!declared) ++report.skipped;
  std::size_t records = 0;
  while (readLine(is, line)) {
    if (line.empty()) continue;
    ++records;
    if (line.rfind("e ", 0) != 0) {
      ++report.skipped;
      continue;
    }
    // "e <16-hex> <payload>": verify the checksum before trusting a byte of
    // the payload, then parse strictly.
    if (line.size() < 2 + 16 + 2 || line[18] != ' ') {
      ++report.skipped;
      continue;
    }
    const std::string checksum = line.substr(2, 16);
    const std::string payload = line.substr(19);
    if (checksum != checksumHex(payload)) {
      ++report.skipped;
      continue;
    }
    PlanCache::SnapshotEntry entry;
    if (!parsePayload(payload, entry)) {
      ++report.skipped;
      continue;
    }
    cache.insertWarm(entry.key, entry.answer);
    ++report.loaded;
  }
  if (declared && *declared > records) report.skipped += *declared - records;
  return report;
}

SnapshotLoadReport tryLoadPlanCacheSnapshot(PlanCache& cache,
                                            const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    SnapshotLoadReport report;
    report.error = "loadPlanCacheSnapshot: cannot open " + path;
    return report;
  }
  return tryLoadPlanCacheSnapshot(cache, in);
}

SnapshotLoadReport loadPlanCacheSnapshot(PlanCache& cache, std::istream& is) {
  const SnapshotLoadReport report = tryLoadPlanCacheSnapshot(cache, is);
  if (!report.ok()) throw std::runtime_error(report.error);
  return report;
}

SnapshotLoadReport loadPlanCacheSnapshot(PlanCache& cache,
                                         const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("loadPlanCacheSnapshot: cannot open " + path);
  return loadPlanCacheSnapshot(cache, in);
}

}  // namespace pushpart
