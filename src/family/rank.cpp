#include "family/rank.hpp"

#include <algorithm>

#include "bounds/bounds.hpp"

namespace pushpart {

std::vector<FamilyRanked> rankFamilyCandidates(Algo algo, int n,
                                               const Machine& machine,
                                               FamilySet selection,
                                               Topology topology,
                                               StarConfig star) {
  const std::int64_t bound = vocLowerBound(n, machine.ratio);
  std::vector<FamilyRanked> out;
  builtinFamilies().forEach(
      n, machine.ratio, selection, [&](const FamilyCandidate& c) {
        FamilyRanked r;
        r.family = c.family;
        r.name = c.name;
        r.shape = c.shape;
        r.model = evalModel(algo, c.partition, machine, topology, star);
        r.voc = c.partition.volumeOfCommunication();
        r.gapPct = optimalityGapPct(r.voc, bound);
        out.push_back(std::move(r));
      });
  std::sort(out.begin(), out.end(),
            [](const FamilyRanked& a, const FamilyRanked& b) {
              if (a.model.execSeconds != b.model.execSeconds)
                return a.model.execSeconds < b.model.execSeconds;
              if (a.family != b.family) return a.family < b.family;
              return a.name < b.name;
            });
  return out;
}

std::optional<FamilyRanked> bestFamilyCandidate(Algo algo, int n,
                                                const Machine& machine,
                                                FamilySet selection,
                                                Topology topology,
                                                StarConfig star) {
  auto ranked =
      rankFamilyCandidates(algo, n, machine, selection, topology, star);
  if (ranked.empty()) return std::nullopt;
  return std::move(ranked.front());
}

}  // namespace pushpart
