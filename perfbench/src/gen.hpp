// Seeded input generators for the three benchmark workloads.
//
// The benchmark draws every input from its own SplitMix64 stream, so the
// inputs depend only on the workload seed and never on the library's RNG.
// The library receives nothing but the generated requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/request.hpp"

namespace perfbench {

/// SplitMix64 (Steele, Lea and Flood): tiny, fast, and fully specified, so
/// the streams are stable across compilers and library versions.
class BenchRng {
 public:
  explicit BenchRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [lo, hi] inclusive.
  int range(int lo, int hi);

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks [0, n): rank k is drawn with weight 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(BenchRng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Deterministic shuffle (Fisher–Yates on the benchmark stream).
template <typename T>
void shuffle(std::vector<T>& v, BenchRng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.range(0, static_cast<int>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

/// Additive-recurrence (Weyl) sequence frac(offset + k·alpha) with a
/// seed-drawn offset: a low-discrepancy stream in [0, 1). Any run of
/// consecutive indices covers [0, 1) evenly, so a workload's mix of sizes
/// and ratios barely moves from seed to seed while the values themselves
/// do.
class Weyl {
 public:
  Weyl(double alpha, BenchRng& rng) : alpha_(alpha), offset_(rng.uniform()) {}
  double at(std::size_t k) const;
  /// Integer in [lo, hi] at index k.
  int range(std::size_t k, int lo, int hi) const;

 private:
  double alpha_;
  double offset_;
};

// -- plan-serve ---------------------------------------------------------------

struct PlanServeInputs {
  /// One canonical-form request per key (S_r = 1, R_r >= S_r), most
  /// popular first: 6000 keys, one in 20 asking for tier B (2 walks,
  /// n 64-96), the rest for tier A (n 64-384), over all five algorithms,
  /// both topologies and the Fig. 13 box P_r <= 20, R_r <= 10. Sizes,
  /// algorithms, topologies and ratios are spread evenly along the
  /// popularity order.
  std::vector<pushpart::PlanRequest> keys;
  /// The request stream as sent, keys drawn Zipf(1) by popularity: each
  /// entry is a key in a scaled and, half the time, R/S-relabelled form, so
  /// canonicalization does real work.
  std::vector<pushpart::PlanRequest> stream;
  std::vector<std::size_t> keyOf;  ///< stream[i] is a form of keys[keyOf[i]].
};

PlanServeInputs makePlanServe(std::uint64_t seed, std::size_t ops);

// -- search-cold --------------------------------------------------------------

/// Every request is a distinct tier-B key with a fixed budget of 2 walks:
/// ratios cycle through the paper's eleven, sizes are spread evenly over
/// n 96-128, and each request gets a fresh searchSeed.
std::vector<pushpart::PlanRequest> makeSearchCold(std::uint64_t seed,
                                                  std::size_t ops);

// -- product ------------------------------------------------------------------

struct ProductJob {
  pushpart::PlanRequest request;  ///< Tier A, fully connected, SCB or PCB.
  std::uint64_t execSeed = 0;     ///< Input-matrix seed for the executor.
  bool large = false;
};

/// Exactly 15% of the jobs are large: they cycle through the sizes 500,
/// 512, 544, 576, 608 and 640 and through (size, ratio) pairs in a fixed
/// order, so the large class is the same at every seed and only its
/// positions in the stream move. Small jobs spread their sizes evenly over
/// n 128-256 and cycle through the paper's ratios.
std::vector<ProductJob> makeProduct(std::uint64_t seed, std::size_t ops);

}  // namespace perfbench
