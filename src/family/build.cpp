#include "family/build.hpp"

#include <algorithm>

namespace pushpart::family_detail {

std::vector<int> allotLines(int n, const std::vector<int>& minLines,
                            const std::vector<double>& targetLines) {
  std::vector<int> out = minLines;
  int used = 0;
  for (const int m : out) used += m;
  if (used > n) return {};
  int surplus = n - used;
  while (surplus > 0) {
    // Hand each surplus line to the band furthest below its target share;
    // ties resolve to the earliest band (deterministic).
    std::size_t pick = 0;
    double bestDeficit = -1e300;
    for (std::size_t k = 0; k < out.size(); ++k) {
      const double deficit = targetLines[k] - static_cast<double>(out[k]);
      if (deficit > bestDeficit) {
        bestDeficit = deficit;
        pick = k;
      }
    }
    ++out[pick];
    --surplus;
  }
  return out;
}

bool buildLayeredOnto(Partition& q, Proc base,
                      const std::vector<std::vector<LayerMember>>& layers,
                      bool rowBands) {
  const int n = q.n();
  const auto nn = static_cast<std::int64_t>(n);

  // The base owner is never carved — its share is whatever stays uncarved
  // anywhere on the grid — so only the *other* members constrain a band's
  // depth. (This is what makes awkward counts feasible: Σ ceil over every
  // member can overshoot n even when the carved members alone fit.)
  const auto carvedNeed = [&](std::size_t k, std::int64_t d) {
    std::int64_t need = 0;
    for (const auto& m : layers[k])
      if (m.owner != base) need += ceilDiv(m.count, d);
    return need;
  };
  std::vector<int> minDepth;
  std::vector<double> targetDepth;
  for (const auto& layer : layers) {
    std::int64_t total = 0, carved = 0;
    for (const auto& m : layer) {
      total += m.count;
      if (m.owner != base) carved += m.count;
    }
    if (total <= 0) return false;
    minDepth.push_back(
        std::max(1, static_cast<int>(ceilDiv(carved, nn))));
    targetDepth.push_back(static_cast<double>(total) / static_cast<double>(n));
  }
  std::vector<int> depth = allotLines(n, minDepth, targetDepth);

  // A band's carved members each need ceil(count/depth) lines across the
  // band; a proportional depth can leave a band one line short of that sum,
  // so grow tight bands at the expense of slack ones until every band fits.
  for (int pass = 0; pass < n && !depth.empty(); ++pass) {
    int tight = -1;
    for (std::size_t k = 0; k < layers.size(); ++k) {
      if (carvedNeed(k, depth[k]) > nn) {
        tight = static_cast<int>(k);
        break;
      }
    }
    if (tight < 0) break;
    int donor = -1;
    for (std::size_t k = 0; k < layers.size(); ++k) {
      if (static_cast<int>(k) == tight || depth[k] <= minDepth[k]) continue;
      if (carvedNeed(k, depth[k] - 1) <= nn) {
        donor = static_cast<int>(k);
        break;
      }
    }
    if (donor < 0) return false;
    ++depth[static_cast<std::size_t>(tight)];
    --depth[static_cast<std::size_t>(donor)];
  }
  if (depth.empty()) return false;

  int d0 = 0;
  for (std::size_t k = 0; k < layers.size(); ++k) {
    const int d1 = d0 + depth[k];
    std::vector<int> minWidth;
    std::vector<double> targetWidth;
    for (const auto& m : layers[k]) {
      minWidth.push_back(
          m.owner == base ? 0
                          : static_cast<int>(ceilDiv(m.count, depth[k])));
      targetWidth.push_back(static_cast<double>(m.count) /
                            static_cast<double>(depth[k]));
    }
    const std::vector<int> width = allotLines(n, minWidth, targetWidth);
    if (width.empty()) return false;
    int w0 = 0;
    for (std::size_t m = 0; m < layers[k].size(); ++m) {
      const int w1 = w0 + width[m];
      const LayerMember& member = layers[k][m];
      if (member.owner != base) {
        const Rect box = rowBands ? Rect{d0, d1, w0, w1} : Rect{w0, w1, d0, d1};
        if (q.claim(box, base, member.owner, member.count,
                    {.columns = !rowBands}) != member.count)
          return false;
      }
      w0 = w1;
    }
    d0 = d1;
  }
  return true;
}

}  // namespace pushpart::family_detail
