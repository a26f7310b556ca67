// Processor speed ratios P_r : R_r : S_r.
//
// The paper normalizes S_r = 1 and requires P to be the (equal-)fastest
// processor (assumption 2, §IV). A Ratio carries the three relative speeds,
// parses/prints the "5:2:1" notation used throughout the paper, and converts
// speeds into per-processor element counts for an N×N matrix: processor X is
// assigned ⌊N²·X_r/T⌉ elements where T = P_r + R_r + S_r (Eq. 12).
//
// NSpeeds is the same for k owners (paper §XI): a fastest-first speed list
// whose element counts are indexed by owner id (grid/proc.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "grid/proc.hpp"

namespace pushpart {

struct Ratio {
  double p = 1.0;  ///< P_r, the fastest processor's relative speed.
  double r = 1.0;  ///< R_r.
  double s = 1.0;  ///< S_r; the paper normalizes this to 1.

  /// Sum of the relative speeds, T in the paper's Eq. 12.
  double total() const { return p + r + s; }

  /// Relative speed of one processor.
  double speed(Proc x) const;

  /// Fraction of the matrix owned by processor X: X_r / T.
  double fraction(Proc x) const { return speed(x) / total(); }

  /// Element counts {eR, eS, eP} for an N×N matrix, summing exactly to N².
  /// R and S counts are floored; P absorbs both remainders (it is the
  /// largest share by assumption, and flooring keeps eP >= eR, eS even
  /// when P ties R in speed — see the .cpp comment). Throws
  /// std::invalid_argument when a share is not a finite count in [0, N²]
  /// (speeds so large that their shares overflow).
  std::array<std::int64_t, kNumProcs> elementCounts(int n) const;

  /// Normalized copy with s == 1 (divides all three by s).
  Ratio normalized() const;

  /// True when the assumptions of §IV hold: all speeds positive and
  /// p >= max(r, s).
  bool valid() const;

  /// Parses "P:R:S", e.g. "5:2:1". Throws std::invalid_argument on bad input,
  /// including speeds that are not finite and positive.
  static Ratio parse(const std::string& text);

  /// "P:R:S" with compact number formatting.
  std::string str() const;

  friend bool operator==(const Ratio&, const Ratio&) = default;
};

/// The eleven ratios studied experimentally in the paper (§VII).
const std::array<Ratio, 11>& paperRatios();

/// Relative speeds of k owners, fastest first: speeds[0] is the fastest
/// owner (id k − 1), speeds[r] for r ≥ 1 the slow owner r − 1.
struct NSpeeds {
  std::vector<double> speeds;

  /// Number of owners k.
  int owners() const { return static_cast<int>(speeds.size()); }
  double total() const;
  /// At least two speeds, all positive, none above speeds[0].
  bool valid() const;

  /// Element counts indexed by owner id, summing exactly to N²: the slow
  /// owners' shares are floored and the fastest absorbs the remainder. At
  /// three owners this equals Ratio::elementCounts. Throws
  /// std::invalid_argument when a share is not a finite count in [0, N²].
  std::vector<std::int64_t> elementCounts(int n) const;

  /// Parses "8:4:2:1". Throws std::invalid_argument on bad input, including
  /// speeds that are not finite and positive.
  static NSpeeds parse(const std::string& text);

  std::string str() const;
};

}  // namespace pushpart
