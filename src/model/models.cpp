#include "model/models.hpp"

#include <algorithm>
#include <array>

#include "support/check.hpp"

namespace pushpart {

namespace detail {

CommVolumes routedVolumes(
    const std::array<std::array<std::int64_t, kNumProcs>, kNumProcs>& v,
    Topology topology, StarConfig star) {
  CommVolumes out;
  for (int s = 0; s < kNumProcs; ++s)
    for (int r = 0; r < kNumProcs; ++r)
      out.serialTotal += v[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)];

  if (topology == Topology::kFullyConnected) {
    for (int s = 0; s < kNumProcs; ++s)
      for (int r = 0; r < kNumProcs; ++r)
        out.perProc[static_cast<std::size_t>(s)] +=
            v[static_cast<std::size_t>(s)][static_cast<std::size_t>(r)];
    return out;
  }

  // Star: spoke↔spoke elements cross two links (spoke→hub, hub→spoke). The
  // hub pays the forwarding on its outbound budget.
  const auto hub = static_cast<std::size_t>(procIndex(star.hub));
  std::int64_t forwarded = 0;
  for (int s = 0; s < kNumProcs; ++s) {
    for (int r = 0; r < kNumProcs; ++r) {
      const auto ss = static_cast<std::size_t>(s);
      const auto rr = static_cast<std::size_t>(r);
      if (v[ss][rr] == 0) continue;
      out.perProc[ss] += v[ss][rr];  // first hop is always the sender's
      if (ss != hub && rr != hub) {
        forwarded += v[ss][rr];
        out.perProc[hub] += v[ss][rr];  // second hop
      }
    }
  }
  out.serialTotal += forwarded;
  return out;
}

}  // namespace detail

ModelResult bulkResult(Algo algo, double commSeconds,
                       const ComputeLoads& loads) {
  PUSHPART_CHECK_MSG(algo != Algo::kPIO, "PIO has no bulk combine");
  ModelResult result;
  result.commSeconds = commSeconds;
  if (algo == Algo::kSCB || algo == Algo::kPCB) {
    result.compSeconds = loads.full;
    result.execSeconds = commSeconds + loads.full;
  } else {
    result.overlapSeconds = loads.overlap;
    result.compSeconds = loads.remainder;
    result.execSeconds =
        std::max(commSeconds, loads.overlap) + loads.remainder;
  }
  return result;
}

}  // namespace pushpart
