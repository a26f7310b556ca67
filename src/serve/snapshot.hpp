// Warm-restart persistence for the PlanCache.
//
// A restarted oracle starts cold: every hot key pays a full solve again.
// Snapshots fix that with a versioned, per-entry-checksummed text file:
//
//   pushpart-plancache v3
//   entries <count>
//   e <fnv1a-16-hex> <key-text> <23 answer fields>
//   ...
//
// Writing is crash-safe: the file is written to "<path>.tmp" and atomically
// renamed over the destination, so a crash mid-write leaves the previous
// snapshot intact. Reading is corruption-tolerant per entry: a line whose
// checksum, field count, or field ranges don't verify is skipped (counted),
// and every other entry still loads — a truncated tail or a flipped byte
// costs one entry, not the snapshot. Entries the `entries` line declares
// but the file no longer holds (a cut after a complete line) count as
// skipped too, so a shortened file never reads as clean. A wrong
// magic/version line refuses the whole file: silently guessing at a future
// format would be worse than starting cold. Every outcome — loaded,
// skipped, version-refused — is counted in the SnapshotLoadReport so
// callers (the CLI's --snapshot restore, the cluster's rebalance state
// transfer) can assert on exactly what happened instead of trusting a
// silent partial load.
//
// The same format doubles as the cluster's state-transfer wire format:
// savePlanCacheSegment serializes an arbitrary entry subset (one rebalance
// chunk) as a complete snapshot document, which the receiving node loads
// through the ordinary corruption-checked path.
//
// Doubles are printed with %.17g, so save -> load -> save is byte-identical
// and a restored answer is bit-for-bit the one that was cached.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/cache.hpp"

namespace pushpart {

struct SnapshotLoadReport {
  std::size_t loaded = 0;   ///< Entries restored into the cache.
  /// Corrupt/unparseable entries left behind, plus declared entries
  /// missing from the file (and a missing or malformed `entries` line).
  std::size_t skipped = 0;
  /// The magic/version line did not match: nothing was loaded. Set by the
  /// try-variants; the throwing variants turn it into std::runtime_error.
  bool versionRefused = false;
  /// Human-readable failure (version refusal or unreadable file); empty on
  /// success.
  std::string error;

  /// The file was accepted (right version, readable). Skipped entries do
  /// not fail ok(); callers that need a byte-perfect transfer check clean().
  bool ok() const { return !versionRefused && error.empty(); }
  /// Accepted and every entry verified: what cluster state transfer asserts.
  bool clean() const { return ok() && skipped == 0; }
};

/// Serializes every resident cache entry. Stream variants are exposed for
/// tests; the path variant writes <path>.tmp then renames atomically.
/// Returns the number of entries written. Throws std::runtime_error on I/O
/// failure (the destination is untouched in that case).
std::size_t savePlanCacheSnapshot(const PlanCache& cache, std::ostream& os);
std::size_t savePlanCacheSnapshot(const PlanCache& cache,
                                  const std::string& path);

/// Serializes an explicit entry list (e.g. one rebalance segment) in the
/// snapshot format. Returns entries written; throws std::runtime_error on
/// stream failure.
std::size_t savePlanCacheSegment(
    const std::vector<PlanCache::SnapshotEntry>& entries, std::ostream& os);

/// Restores entries via PlanCache::insertWarm. Corrupt entries are skipped
/// and counted; an unreadable file or a magic/version mismatch throws
/// std::runtime_error and restores nothing.
SnapshotLoadReport loadPlanCacheSnapshot(PlanCache& cache, std::istream& is);
SnapshotLoadReport loadPlanCacheSnapshot(PlanCache& cache,
                                         const std::string& path);

/// Non-throwing variants: a version mismatch or unreadable file comes back
/// as a report with versionRefused/error set (and nothing loaded) instead of
/// an exception — what serving paths that must survive a bad snapshot use.
SnapshotLoadReport tryLoadPlanCacheSnapshot(PlanCache& cache,
                                            std::istream& is);
SnapshotLoadReport tryLoadPlanCacheSnapshot(PlanCache& cache,
                                            const std::string& path);

}  // namespace pushpart
