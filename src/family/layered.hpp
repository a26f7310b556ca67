// Layer-based candidate partitions (Liu/Shi/Zhang/Robertazzi,
// arXiv 1812.06329) for q >= 3 processors.
//
// The layered scheme slices the unit square into parallel processor bands
// ("layers"), each holding one or more processors side by side; band depths
// and in-band widths follow the speed shares. For three processors the
// family enumerates every ordered layering of {P, R, S} into one, two or
// three bands in both orientations — a superset of the paper's
// Block/Traditional/L geometry that also realizes the orderings the
// canonical constructors fix arbitrarily (which is where it can strictly
// beat them at integer granularity). For q processors it enumerates the
// contiguous compositions of the speed-sorted processor sequence.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "family/family.hpp"

namespace pushpart {

/// One 3-processor layering: bands top→bottom (rowBands) or left→right,
/// members in cross order within each band.
struct LayeredSpec {
  std::vector<std::vector<Proc>> layers;
  bool rowBands = true;
};

/// Space-free token, e.g. "layers:P/R-S:r" (bands joined by '/', members by
/// '-', orientation suffix r|c).
std::string layeredSpecName(const LayeredSpec& spec);

/// Builds the spec at integer granularity with exact ratio element counts;
/// nullopt when the integer allotment cannot fit.
std::optional<Partition> makeLayeredPartition(int n, const Ratio& ratio,
                                              const LayeredSpec& spec);

/// Every ordered layering of {P, R, S} into 2 or 3 bands, both orientations
/// (deterministic order; duplicates across specs are left to the registry's
/// hash dedup).
const std::vector<LayeredSpec>& allLayeredSpecs();

/// One q-processor layering of the speed-sorted processors, by fastest-first
/// speed rank 0..q-1 (rank 0 the fastest; ownerOfRank gives owner ids).
struct NLayeredSpec {
  std::vector<std::vector<int>> layers;
  bool rowBands = true;
};

std::string layeredSpecName(const NLayeredSpec& spec);

/// Builds the spec over speeds.owners() owners with exact element counts;
/// nullopt when the integer allotment cannot fit.
std::optional<Partition> makeLayeredPartition(int n, const NSpeeds& speeds,
                                               const NLayeredSpec& spec);

/// All contiguous compositions of [0, procs) into layers, both orientations.
std::vector<NLayeredSpec> allNLayeredSpecs(int procs);

/// Registry member wrapping the constructions above.
class LayeredFamily final : public CandidateFamily {
 public:
  FamilyId id() const override { return FamilyId::kLayered; }
  const char* description() const override {
    return "layer-based bands for q >= 3 processors (arXiv 1812.06329)";
  }
  void enumerate(
      int n, const Ratio& ratio,
      const std::function<void(FamilyCandidate&&)>& emit) const override;
  void enumerateN(
      int n, const NSpeeds& speeds,
      const std::function<void(FamilyCandidate&&)>& emit) const override;
};

}  // namespace pushpart
