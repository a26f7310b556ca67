// Warm-restart persistence for the PlanCache.
//
// A restarted oracle starts cold: every hot key pays a full solve again.
// A snapshot fixes that. It is a support/persist.hpp document with no
// header records, one record per cache entry:
//
//   pushpart-plancache v3
//   entries <count>
//   e <fnv1a-16-hex> <key-text> <23 answer fields>
//   ...
//
// An entry whose fields are out of range, or whose answer is not full
// fidelity (PlanCache::insertWarm refuses it, as the cache never holds one),
// is skipped and counted like a corrupt one.
//
// The same format doubles as the cluster's state-transfer wire format:
// savePlanCacheSegment serializes an arbitrary entry subset (one rebalance
// chunk) as a complete snapshot document, which the receiving node loads
// through the ordinary corruption-checked path.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/cache.hpp"
#include "support/persist.hpp"

namespace pushpart {

using SnapshotLoadReport = LoadReport;

/// Serializes every resident cache entry. The stream variant is exposed for
/// tests; the path variant publishes durably (support/persist.hpp). Returns
/// the number of entries written. Throws std::runtime_error on I/O failure
/// (the destination is untouched in that case).
std::size_t savePlanCacheSnapshot(const PlanCache& cache, std::ostream& os);
std::size_t savePlanCacheSnapshot(const PlanCache& cache,
                                  const std::string& path);

/// Serializes an explicit entry list (e.g. one rebalance segment) in the
/// snapshot format. Returns entries written; throws std::runtime_error on
/// stream failure.
std::size_t savePlanCacheSegment(
    const std::vector<PlanCache::SnapshotEntry>& entries, std::ostream& os);

/// Restores entries via PlanCache::insertWarm. Never throws on bad input: a
/// version mismatch or an unreadable file comes back as a report with
/// versionRefused/error set and nothing loaded, so a serving path can start
/// cold and say exactly why.
SnapshotLoadReport tryLoadPlanCacheSnapshot(PlanCache& cache,
                                            std::istream& is);
SnapshotLoadReport tryLoadPlanCacheSnapshot(PlanCache& cache,
                                            const std::string& path);

}  // namespace pushpart
