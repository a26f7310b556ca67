// Percentiles, the tail-percentile rule and the latency-mode check.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile: the sample at rank ceil(q * N) (1-based) of the
/// sorted values. q in (0, 1]. Returns 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Samples that rank strictly beyond the nearest-rank q-quantile of N.
std::size_t samplesBeyond(std::size_t n, double q);

/// The tail percentile to report: the highest of p99 and p90 that has at
/// least `minBeyond` samples beyond it. When neither has, p90 with
/// `enough` false (a run too short to resolve its tail).
struct TailChoice {
  double q = 0.9;
  std::size_t beyond = 0;
  bool enough = false;
  std::string label() const;  ///< "p99" / "p90".
};
TailChoice chooseTail(std::size_t n, std::size_t minBeyond = 10);

/// Where a percentile falls among latency modes. `modeCounts` lists how many
/// samples each mode holds, fastest mode first. The percentile must land in
/// one mode at least `margin` samples from either edge of it, so that a
/// small shift in the shares cannot move it onto another mode.
struct ModePlacement {
  std::size_t mode = 0;      ///< Index into modeCounts.
  std::size_t distance = 0;  ///< Samples to the nearest mode edge.
  bool inside = false;       ///< distance >= margin.
};
ModePlacement placeInModes(const std::vector<std::size_t>& modeCounts,
                           double q, std::size_t margin);

/// Largest |C - C_ref| a correct n×n product of entries in [-1, 1) may show
/// against another correct one. Any summation order of n products lies
/// within n·u·Σ|a·b| <= n²·u of the exact sum (u = 2^-53); two such results
/// differ by at most twice that, and the factor 4 doubles it again. A wrong
/// element misses or repeats a term of magnitude ~|a·b|, far above this.
double reassociationTolerance(int n);

}  // namespace perfbench
