#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

/// 0-based index of the nearest-rank q-quantile among n samples.
std::size_t rankIndex(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t idx = rankIndex(values.size(), q);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::size_t samplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rankIndex(n, q);
}

std::string TailChoice::label() const { return q > 0.95 ? "p99" : "p90"; }

TailChoice chooseTail(std::size_t n, std::size_t minBeyond) {
  for (double q : {0.99, 0.90}) {
    const std::size_t beyond = samplesBeyond(n, q);
    if (beyond >= minBeyond) return TailChoice{q, beyond, true};
  }
  return TailChoice{0.90, samplesBeyond(n, 0.90), false};
}

ModePlacement placeInModes(const std::vector<std::size_t>& modeCounts,
                           double q, std::size_t margin) {
  const std::size_t n =
      std::accumulate(modeCounts.begin(), modeCounts.end(), std::size_t{0});
  ModePlacement out;
  if (n == 0) return out;
  const std::size_t idx = rankIndex(n, q);
  std::size_t lo = 0;
  for (std::size_t m = 0; m < modeCounts.size(); ++m) {
    const std::size_t hi = lo + modeCounts[m];  // mode m holds [lo, hi)
    if (idx < hi) {
      out.mode = m;
      out.distance = std::min(idx - lo, hi - 1 - idx);
      // The outermost edges are not mode boundaries.
      if (m == 0) out.distance = hi - 1 - idx;
      if (m + 1 == modeCounts.size())
        out.distance = m == 0 ? n : idx - lo;
      out.inside = out.distance >= margin;
      return out;
    }
    lo = hi;
  }
  return out;
}

double reassociationTolerance(int n) {
  const double nn = static_cast<double>(n);
  return 4.0 * nn * nn * 0x1.0p-53;
}

}  // namespace perfbench
