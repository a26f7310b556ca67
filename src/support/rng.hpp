// Deterministic, seedable random number generation.
//
// The DFA search program (paper §VI) depends on randomised start states and
// push schedules. For reproducible experiments every random decision flows
// through one Rng instance seeded from the command line, so a (seed, N,
// ratio) triple fully determines a run. We use xoshiro256** rather than
// std::mt19937 because it is faster, has a smaller state, and its streams are
// trivially splittable for the multi-threaded batch runner. The per-draw
// members (operator(), below, real) are defined in this header, so a tight
// loop such as randomMatrix's 2n² draws pays no call per draw.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "support/check.hpp"

namespace pushpart {

/// xoshiro256** by Blackman & Vigna, seeded via splitmix64.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state by iterating splitmix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit draw.
  result_type operator()() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound) {
    PUSHPART_CHECK(bound > 0);
    // Lemire 2019: multiply-shift with rejection for exact uniformity.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double real() {
    // 53 high bits -> uniform double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p of returning true.
  bool chance(double p);

  /// Fisher–Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent generator for worker thread `index`.
  /// Equivalent to jumping a fresh splitmix64 stream; streams with distinct
  /// indices from the same parent never share state.
  Rng split(std::uint64_t index) const;

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t seed_ = 0;  // remembered for split()
};

}  // namespace pushpart
