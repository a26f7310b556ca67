#include "support/rng.hpp"

#include "support/check.hpp"

namespace pushpart {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // All-zero state would make xoshiro emit zeros forever; splitmix64 cannot
  // produce four consecutive zeros, but guard anyway for defence in depth.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  PUSHPART_CHECK(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // span == 0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  const std::uint64_t draw = (span == 0) ? (*this)() : below(span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + draw);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return real() < p;
}

Rng Rng::split(std::uint64_t index) const {
  // Mix the parent seed with the stream index through splitmix64 so adjacent
  // indices land in unrelated parts of the sequence space.
  std::uint64_t sm = seed_ ^ (0xA24BAED4963EE407ull + index * 0x9FB21C651E98DF25ull);
  return Rng(splitmix64(sm));
}

}  // namespace pushpart
