#include "model/optimal.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/check.hpp"

namespace pushpart {

namespace {

/// Models one feasible shape from its line counts: the same counters the
/// painted grid would give, without painting it.
RankedCandidate rankLines(CandidateShape shape, Algo algo, int n,
                          const Machine& machine, Topology topology,
                          StarConfig star) {
  const LineCounts lines = candidateLines(shape, n, machine.ratio);
  return {shape, evalModel(algo, lines, machine, topology, star),
          lines.volumeOfCommunication()};
}

void checkModelN(int n) {
  PUSHPART_CHECK_MSG(n <= kMaxModelN, "n=" << n << " exceeds the model bound "
                                           << kMaxModelN);
}

}  // namespace

std::vector<RankedCandidate> rankCandidates(Algo algo, int n,
                                            const Machine& machine,
                                            Topology topology,
                                            StarConfig star) {
  checkModelN(n);
  std::vector<RankedCandidate> out;
  for (CandidateShape shape : kAllCandidates) {
    if (!candidateFeasible(shape, n, machine.ratio)) continue;
    out.push_back(rankLines(shape, algo, n, machine, topology, star));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RankedCandidate& a, const RankedCandidate& b) {
                     return a.model.execSeconds < b.model.execSeconds;
                   });
  return out;
}

RankedCandidate selectOptimal(Algo algo, int n, const Machine& machine,
                              Topology topology, StarConfig star) {
  const auto ranked = rankCandidates(algo, n, machine, topology, star);
  if (ranked.empty())
    throw std::runtime_error("selectOptimal: no feasible candidate for n=" +
                             std::to_string(n));
  return ranked.front();
}

std::optional<RankedCandidate> rankOne(CandidateShape shape, Algo algo, int n,
                                       const Machine& machine,
                                       Topology topology, StarConfig star) {
  checkModelN(n);
  if (!candidateFeasible(shape, n, machine.ratio)) return std::nullopt;
  return rankLines(shape, algo, n, machine, topology, star);
}

}  // namespace pushpart
