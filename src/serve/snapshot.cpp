#include "serve/snapshot.hpp"

#include <sstream>

#include "shapes/candidates.hpp"

namespace pushpart {

namespace {

// v2 added the atlas provenance fields (atlasServed, atlasCertGapPct,
// atlasI, atlasJ); v3 added the family/lower-bound evidence (family,
// familyCandidate, optimalityGapPct). Older files are refused — a silently
// restored answer missing its provenance would misreport the sources
// breakdown (or claim a zero gap it never computed) forever.
const RecordFormat kFormat{"snapshot", "pushpart-plancache v3", {}, "entries",
                           "e"};

/// The key and the answer's 23 fields, in a fixed order the loader mirrors.
/// Enums travel as integers; the familyCandidate token is space-free by
/// construction (serialized as "-" when empty).
std::string payloadFor(const PlanCache::SnapshotEntry& entry) {
  const PlanAnswer& a = entry.answer;
  return joinFields(
      entry.key, static_cast<int>(a.shape), a.model.commSeconds,
      a.model.overlapSeconds, a.model.compSeconds, a.model.execSeconds, a.voc,
      static_cast<int>(a.tier), static_cast<int>(a.servedTier),
      static_cast<int>(a.degrade), a.truncated, a.solveSeconds, a.searchRuns,
      a.searchCompleted, a.searchBestVoc, a.searchBestExecSeconds,
      a.searchConfirmedCandidate, a.atlasServed, a.atlasCertGapPct, a.atlasI,
      a.atlasJ, static_cast<int>(a.family),
      a.familyCandidate.empty() ? std::string("-") : a.familyCandidate,
      a.optimalityGapPct);
}

/// Parses one payload back into an entry. Returns false on any field-count,
/// numeric-format or range problem — the caller skips the entry.
bool parsePayload(const std::string& payload,
                  PlanCache::SnapshotEntry& entry) {
  PlanAnswer& a = entry.answer;
  int shape = -1, tier = -1, servedTier = -1, degrade = -1, family = -1;
  std::string familyCandidate;
  if (!parseFields(payload, entry.key, shape, a.model.commSeconds,
                   a.model.overlapSeconds, a.model.compSeconds,
                   a.model.execSeconds, a.voc, tier, servedTier, degrade,
                   a.truncated, a.solveSeconds, a.searchRuns,
                   a.searchCompleted, a.searchBestVoc,
                   a.searchBestExecSeconds, a.searchConfirmedCandidate,
                   a.atlasServed, a.atlasCertGapPct, a.atlasI, a.atlasJ,
                   family, familyCandidate, a.optimalityGapPct))
    return false;
  if (shape < 0 || shape >= kNumCandidates) return false;
  if (tier < 0 || tier > 1 || servedTier < 0 || servedTier > 1) return false;
  if (degrade < 0 ||
      degrade > static_cast<int>(DegradeReason::kLate))
    return false;
  if (family < 0 || family >= kNumFamilies) return false;
  // Counts, times and gaps are never negative.
  if (a.voc < 0 || a.searchRuns < 0 || a.searchCompleted < 0 ||
      a.searchBestVoc < 0 || a.atlasI < -1 || a.atlasJ < -1)
    return false;
  for (const double v : {a.model.commSeconds, a.model.overlapSeconds,
                         a.model.compSeconds, a.model.execSeconds,
                         a.solveSeconds, a.searchBestExecSeconds,
                         a.atlasCertGapPct, a.optimalityGapPct})
    if (!(v >= 0.0)) return false;
  a.family = static_cast<FamilyId>(family);
  a.familyCandidate = familyCandidate == "-" ? "" : familyCandidate;
  a.shape = static_cast<CandidateShape>(shape);
  a.tier = static_cast<PlanTier>(tier);
  a.servedTier = static_cast<PlanTier>(servedTier);
  a.degrade = static_cast<DegradeReason>(degrade);
  return true;
}

}  // namespace

std::size_t savePlanCacheSegment(
    const std::vector<PlanCache::SnapshotEntry>& entries, std::ostream& os) {
  writeRecords(os, kFormat, {}, entries.size(),
               [&](std::size_t k) { return payloadFor(entries[k]); });
  return entries.size();
}

std::size_t savePlanCacheSnapshot(const PlanCache& cache, std::ostream& os) {
  return savePlanCacheSegment(cache.exportEntries(), os);
}

std::size_t savePlanCacheSnapshot(const PlanCache& cache,
                                  const std::string& path) {
  std::ostringstream text;
  const std::size_t written = savePlanCacheSnapshot(cache, text);
  publishFile(path, text.str());
  return written;
}

SnapshotLoadReport tryLoadPlanCacheSnapshot(PlanCache& cache,
                                            std::istream& is) {
  return readRecords(is, kFormat, {}, [&](const std::string& payload) {
    PlanCache::SnapshotEntry entry;
    return parsePayload(payload, entry) &&
           cache.insertWarm(entry.key, entry.answer);
  });
}

SnapshotLoadReport tryLoadPlanCacheSnapshot(PlanCache& cache,
                                            const std::string& path) {
  return loadFile<SnapshotLoadReport>(
      path, [&](std::istream& in) { return tryLoadPlanCacheSnapshot(cache, in); });
}

}  // namespace pushpart
