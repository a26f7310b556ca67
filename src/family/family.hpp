// The candidate families (DESIGN.md §17).
//
// The paper proves its six 3-processor shapes optimal within Archetype A;
// the related literature contributes further *families* of structured
// candidates: layer-based partitions for q processors (Liu/Shi/Zhang/
// Robertazzi, arXiv 1812.06329) and hierarchical two-level partitions
// (Quintin/Hasanov/Lastovetsky, arXiv 1306.4161). Each family is one
// enumerator function per speed vocabulary (Ratio or NSpeeds), and every
// consumer — the model-layer ranking (family/rank.hpp), the serving oracle,
// the verifier and the benches — draws concrete candidates from
// forEachFamilyCandidate instead of hard-coding its own list.
//
// Every emitted candidate carries *exact* ratio element counts (the same
// Eq. 12 shares the DFA and the canonical constructors use), so candidates
// from different families are directly comparable and the exhaustive
// small-N oracle can cross-check them.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>

#include "grid/partition.hpp"
#include "grid/ratio.hpp"
#include "shapes/candidates.hpp"

namespace pushpart {

enum class FamilyId {
  kCanonical = 0,     ///< The paper's six §IX shapes (plus k=2/k=4 analogues).
  kLayered = 1,       ///< Layer-based partitions (arXiv 1812.06329).
  kHierarchical = 2,  ///< Two-level grouped partitions (arXiv 1306.4161).
};

inline constexpr int kNumFamilies = 3;

inline constexpr std::array<FamilyId, kNumFamilies> kAllFamilies = {
    FamilyId::kCanonical, FamilyId::kLayered, FamilyId::kHierarchical};

constexpr const char* familyName(FamilyId f) {
  switch (f) {
    case FamilyId::kCanonical: return "canonical";
    case FamilyId::kLayered: return "layered";
    case FamilyId::kHierarchical: return "hierarchical";
  }
  return "?";
}

/// Parses a family name as printed by familyName. Throws
/// std::invalid_argument on unknown names.
FamilyId familyFromName(const std::string& name);

/// Which families a consumer wants enumerated. A small bitmask value type so
/// OracleOptions and bench flags can carry it by copy.
struct FamilySet {
  unsigned mask = 0;

  static FamilySet all();
  static FamilySet canonicalOnly();
  bool contains(FamilyId f) const { return (mask >> static_cast<int>(f)) & 1; }
  void insert(FamilyId f) { mask |= 1u << static_cast<int>(f); }
  bool empty() const { return mask == 0; }
  /// True when any non-canonical family is selected — the predicate the
  /// oracle uses to decide whether tier A must rank beyond the six shapes.
  bool extended() const { return (mask & ~1u) != 0; }

  /// "all", "canonical", or a comma list like "layered,hierarchical".
  /// Throws std::invalid_argument on unknown names.
  static FamilySet parse(const std::string& text);
  std::string str() const;

  friend bool operator==(const FamilySet&, const FamilySet&) = default;
};

/// One concrete candidate: an exact-count partition plus the space-free
/// token naming it ("Square-Corner", "layers:P/R-S:r", ...). Tokens contain
/// no whitespace — they travel inside plan-cache snapshots. The partition
/// has three owners when enumerated over a Ratio and speeds.owners() when
/// enumerated over NSpeeds.
struct FamilyCandidate {
  FamilyId family = FamilyId::kCanonical;
  std::string name;
  /// Set for the canonical members enumerated over a Ratio, and only for
  /// them: the CandidateShape this partition is the constructor output of
  /// (atlas certificates re-cost by shape). Enumeration over NSpeeds leaves
  /// it empty.
  std::optional<CandidateShape> shape;
  Partition partition{1, Proc::P};
};

/// Where one family's enumerator hands each member it builds.
using FamilyEmit = std::function<void(FamilyCandidate&&)>;

/// Streams the selected families' candidates through `fn` in family-id
/// order (canonical, layered, hierarchical), one live partition at a time —
/// enumerating n=1000 members never holds the whole field in memory. A
/// partition whose grid hash was already emitted is skipped (first emitter
/// wins, so with canonical selected a layered spec that reproduces
/// Block-Rectangle is suppressed). Deterministic: same (n, ratio or speeds,
/// selection) → same candidates in the same order.
void forEachFamilyCandidate(
    int n, const Ratio& ratio, FamilySet selection,
    const std::function<void(const FamilyCandidate&)>& fn);
void forEachFamilyCandidate(
    int n, const NSpeeds& speeds, FamilySet selection,
    const std::function<void(const FamilyCandidate&)>& fn);

}  // namespace pushpart
