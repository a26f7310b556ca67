#include "family/hierarchical.hpp"

#include <algorithm>
#include <cmath>

#include "family/build.hpp"

namespace pushpart {

namespace fd = family_detail;

namespace {

/// The cells of the n×n grid outside `hole`, in row- or column-major order.
std::vector<std::pair<int, int>> cellsOutside(int n, const Rect& hole,
                                              bool rowMajor) {
  std::vector<std::pair<int, int>> out;
  out.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int a = 0; a < n; ++a)
    for (int b = 0; b < n; ++b) {
      const int r = rowMajor ? a : b;
      const int c = rowMajor ? b : a;
      if (!hole.contains(r, c)) out.emplace_back(r, c);
    }
  return out;
}

std::int64_t ceilSqrt(std::int64_t cells) {
  auto side = static_cast<std::int64_t>(
      std::ceil(std::sqrt(static_cast<double>(cells))));
  while (side * side < cells) ++side;
  while (side > 1 && (side - 1) * (side - 1) >= cells) --side;
  return side;
}

}  // namespace

std::string hierSpecName(const HierSpec& spec) {
  std::string out = "hier:";
  out += procName(spec.group[0]);
  out += '-';
  out += procName(spec.group[1]);
  out += '@';
  out += groupPlacementName(spec.placement);
  out += ':';
  out += spec.regionRowMajor ? 'r' : 'c';
  out += spec.restRowMajor ? 'r' : 'c';
  return out;
}

std::optional<Partition> makeHierPartition(int n, const Ratio& ratio,
                                           const HierSpec& spec) {
  if (n <= 0 || !ratio.valid()) return std::nullopt;
  if (spec.group[0] == spec.group[1]) return std::nullopt;
  const auto counts = ratio.elementCounts(n);
  const auto countOf = [&](Proc p) { return counts[procSlot(p)]; };
  Proc singleton = Proc::P;
  for (const Proc p : kAllProcs)
    if (p != spec.group[0] && p != spec.group[1]) singleton = p;

  const bool pInGroup =
      spec.group[0] == Proc::P || spec.group[1] == Proc::P;
  // The region belongs to the side without P; P's side takes the remainder
  // (and absorbs all integer slack, like every canonical constructor).
  std::vector<Proc> regionMembers, restMembers;
  if (pInGroup) {
    regionMembers = {singleton};
    restMembers = {spec.group[0], spec.group[1]};
  } else {
    regionMembers = {spec.group[0], spec.group[1]};
    restMembers = {singleton};  // == P
  }
  std::int64_t regionCount = 0;
  for (const Proc p : regionMembers) regionCount += countOf(p);
  if (regionCount <= 0) return std::nullopt;

  // Top-level geometry of the region box.
  int r0 = 0, r1 = n, c0 = 0, c1 = n;
  switch (spec.placement) {
    case GroupPlacement::kCornerSquare: {
      const std::int64_t side = ceilSqrt(regionCount);
      if (side >= n) return std::nullopt;
      r0 = n - static_cast<int>(side);
      c0 = n - static_cast<int>(side);
      break;
    }
    case GroupPlacement::kRightStrip: {
      const std::int64_t w = ceilDiv(regionCount, n);
      if (w >= n) return std::nullopt;
      c0 = n - static_cast<int>(w);
      break;
    }
    case GroupPlacement::kTopStrip: {
      const std::int64_t h = ceilDiv(regionCount, n);
      if (h >= n) return std::nullopt;
      r1 = static_cast<int>(h);
      break;
    }
  }

  Partition q(n, Proc::P);
  // Slice the region into consecutive segments of its cell order: each
  // member claims the next P cells of the box.
  const Rect region{r0, r1, c0, c1};
  for (const Proc p : regionMembers)
    if (q.claim(region, Proc::P, p, countOf(p),
                {.columns = !spec.regionRowMajor}) != countOf(p))
      return std::nullopt;
  // Slice the remainder (rest = everything outside the region box). A
  // member equal to P only advances the cursor — its segment stays P — so
  // the two orders of a {P, X} group place X at opposite ends of the rest.
  const auto rest = cellsOutside(n, region, spec.restRowMajor);
  std::size_t cursor = 0;
  for (const Proc p : restMembers) {
    if (p == Proc::P) {
      cursor += static_cast<std::size_t>(countOf(p));
      continue;
    }
    if (!fd::carveCells(q, Proc::P, p, rest, cursor, countOf(p)))
      return std::nullopt;
  }
  return q;
}

const std::vector<HierSpec>& allHierSpecs() {
  static const std::vector<HierSpec> specs = [] {
    std::vector<HierSpec> out;
    const std::array<std::array<Proc, 2>, 6> groups = {{{Proc::R, Proc::S},
                                                        {Proc::S, Proc::R},
                                                        {Proc::P, Proc::R},
                                                        {Proc::R, Proc::P},
                                                        {Proc::P, Proc::S},
                                                        {Proc::S, Proc::P}}};
    for (const auto& g : groups) {
      const bool pInGroup = g[0] == Proc::P || g[1] == Proc::P;
      for (const GroupPlacement placement :
           {GroupPlacement::kCornerSquare, GroupPlacement::kRightStrip,
            GroupPlacement::kTopStrip}) {
        for (const bool regionRowMajor : {true, false}) {
          for (const bool restRowMajor : {true, false}) {
            // With {R,S} grouped the rest is P alone — one order suffices.
            if (!pInGroup && !restRowMajor) continue;
            out.push_back({g, placement, regionRowMajor, restRowMajor});
          }
        }
      }
    }
    return out;
  }();
  return specs;
}

std::string hierSpecName(const NHierSpec& spec) {
  return "hier:" + std::to_string(spec.a) + ":" + std::to_string(spec.b) +
         ":" + candidateName(spec.top);
}

std::optional<Partition> makeHierPartition(int n, const NSpeeds& speeds,
                                            const NHierSpec& spec) {
  const int procs = speeds.owners();
  if (n <= 0 || !speeds.valid()) return std::nullopt;
  if (spec.a < 1 || spec.b <= spec.a || spec.b >= procs) return std::nullopt;
  const auto sum = [&](int lo, int hi) {
    double s = 0.0;
    for (int p = lo; p < hi; ++p)
      s += speeds.speeds[static_cast<std::size_t>(p)];
    return s;
  };
  // Super-node ratio: the paper-optimal 3-proc solver runs at the top level
  // over the three contiguous groups.
  const Ratio super{sum(0, spec.a), sum(spec.a, spec.b),
                    sum(spec.b, procs)};
  if (!super.valid() || !candidateFeasible(spec.top, n, super))
    return std::nullopt;
  const Partition top = makeCandidate(spec.top, n, super);

  const auto counts = speeds.elementCounts(n);
  Partition out(n, procs);
  const std::array<std::pair<Proc, std::pair<int, int>>, 3> groups = {
      {{Proc::P, {0, spec.a}},
       {Proc::R, {spec.a, spec.b}},
       {Proc::S, {spec.b, procs}}}};
  for (const auto& [super_proc, range] : groups) {
    // Explode the super-region into its members (by speed rank):
    // consecutive row-major segments with exact counts; the fastest owner
    // absorbs every leftover.
    std::vector<std::pair<int, int>> cells;
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c)
        if (top.at(r, c) == super_proc) cells.emplace_back(r, c);
    std::size_t cursor = 0;
    for (int rank = range.first; rank < range.second; ++rank) {
      if (rank == 0) continue;
      const Proc owner = ownerOfRank(rank, procs);
      if (!fd::carveCells(out, out.fastest(), owner, cells, cursor,
                          counts[procSlot(owner)]))
        return std::nullopt;
    }
  }
  return out;
}

void hierarchicalCandidates(int n, const Ratio& ratio,
                            const FamilyEmit& emit) {
  for (const HierSpec& spec : allHierSpecs())
    if (std::optional<Partition> q = makeHierPartition(n, ratio, spec))
      emit({FamilyId::kHierarchical, hierSpecName(spec), std::nullopt,
            *std::move(q)});
}

void hierarchicalCandidates(int n, const NSpeeds& speeds,
                            const FamilyEmit& emit) {
  const int procs = speeds.owners();
  if (procs < 4) return;  // q=3 is the canonical solver itself.
  for (int a = 1; a + 1 < procs; ++a)
    for (int b = a + 1; b < procs; ++b)
      for (const CandidateShape top : kAllCandidates) {
        const NHierSpec spec{a, b, top};
        if (std::optional<Partition> q = makeHierPartition(n, speeds, spec))
          emit({FamilyId::kHierarchical, hierSpecName(spec), std::nullopt,
                *std::move(q)});
      }
}

}  // namespace pushpart
