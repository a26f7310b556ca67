// 64-bit FNV-1a, the one hash behind partition identity, plan-cache keys,
// snapshot and atlas checksums, and the cluster ring's points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace pushpart {

inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/// Folds `bytes` into the running hash `h` (the offset basis starts a fresh
/// hash).
inline std::uint64_t fnv1a(std::span<const std::byte> bytes,
                           std::uint64_t h = kFnv1aBasis) {
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV-1a of a string's bytes, folded into `h`.
inline std::uint64_t fnv1a(std::string_view text,
                           std::uint64_t h = kFnv1aBasis) {
  return fnv1a(std::as_bytes(std::span(text)), h);
}

}  // namespace pushpart
