// Hierarchical two-level candidate partitions (Quintin/Hasanov/Lastovetsky,
// arXiv 1306.4161): group unequal processors into super-nodes, place the
// groups with the paper's own top-level geometry, then slice each group's
// region among its members.
//
// Three processors: the two grouped processors form one super-node whose
// region is a corner square or an edge strip (the 2-processor top-level
// shapes from the paper's §II prior work); the region — and the L-shaped or
// rectangular remainder — is sliced into exact member counts by consecutive
// segments of a row- or column-major cell order. This yields shapes outside
// the canonical six (e.g. R and S sharing one corner square).
//
// q >= 4 processors: the speed-sorted processors are grouped into three
// contiguous super-nodes, the *paper-optimal 3-processor solver's* canonical
// shapes are built at the super-node ratio, and every super-region is then
// exploded into its members — the recursive composition the related work
// proposes, with the reproduction's own 3-proc shapes at the top level.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "family/family.hpp"

namespace pushpart {

/// Where the non-P side's region sits at the top level.
enum class GroupPlacement {
  kCornerSquare = 0,  ///< Bottom-right square (2-proc Square-Corner).
  kRightStrip = 1,    ///< Full-height right strip (2-proc Straight-Line).
  kTopStrip = 2,      ///< Full-width top strip (the transpose).
};

constexpr const char* groupPlacementName(GroupPlacement p) {
  switch (p) {
    case GroupPlacement::kCornerSquare: return "sq";
    case GroupPlacement::kRightStrip: return "rstrip";
    case GroupPlacement::kTopStrip: return "tstrip";
  }
  return "?";
}

/// One 3-processor two-level spec. `group` holds the two grouped processors
/// in carve order; the third processor is the implied singleton. The region
/// always belongs to the side WITHOUT P (P's side absorbs slack):
/// P in group → the singleton owns the region, the group slices the rest;
/// group = {R, S} → the group slices the region, P keeps the rest.
struct HierSpec {
  std::array<Proc, 2> group = {Proc::R, Proc::S};
  GroupPlacement placement = GroupPlacement::kCornerSquare;
  bool regionRowMajor = true;  ///< Cell order slicing the region.
  bool restRowMajor = true;    ///< Cell order slicing the remainder.
};

/// Space-free token, e.g. "hier:R-S@sq:rr".
std::string hierSpecName(const HierSpec& spec);

/// Builds the spec with exact ratio element counts; nullopt when infeasible
/// (region cannot fit its side at integer granularity).
std::optional<Partition> makeHierPartition(int n, const Ratio& ratio,
                                           const HierSpec& spec);

/// Every grouping x placement x slicing-order combination (deterministic).
const std::vector<HierSpec>& allHierSpecs();

/// One q-processor spec: contiguous groups [0,a) [a,b) [b,q) acting as
/// super-nodes P/R/S for one canonical 3-processor shape.
struct NHierSpec {
  int a = 1;  ///< First cut (group 0 = [0, a)).
  int b = 2;  ///< Second cut (group 1 = [a, b), group 2 = [b, q)).
  CandidateShape top = CandidateShape::kBlockRectangle;
};

std::string hierSpecName(const NHierSpec& spec);

/// Builds the spec over speeds.owners() owners with exact element counts;
/// nullopt when infeasible.
std::optional<Partition> makeHierPartition(int n, const NSpeeds& speeds,
                                            const NHierSpec& spec);

/// The hierarchical family: every HierSpec over a Ratio; over NSpeeds, every
/// contiguous three-group split and top-level shape for q >= 4 (q = 3 is the
/// canonical solver itself). Infeasible specs are skipped.
void hierarchicalCandidates(int n, const Ratio& ratio, const FamilyEmit& emit);
void hierarchicalCandidates(int n, const NSpeeds& speeds,
                            const FamilyEmit& emit);

}  // namespace pushpart
