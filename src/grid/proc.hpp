// Processor identifiers.
//
// The paper (§IV) names the three heterogeneous processors P, R and S with
// speed ratio P_r : R_r : S_r, S_r = 1 and P fastest, and encodes a partition
// as q(i,j) ∈ {0 = R, 1 = S, 2 = P}. We keep that encoding so partitions
// serialize exactly as the paper's q function.
//
// A partition over k owners (paper §XI's direction, k ∈ [2, kMaxOwners])
// extends the same rule: the slow owners take ids 0..k−2 in their speed
// list's order, and the fastest owner takes k−1. At k = 3 these ids are R, S
// and P, so every three-owner output is unchanged.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace pushpart {

/// One of the three heterogeneous processors. Values match the paper's
/// q(i,j) encoding: R=0, S=1, P=2. A k-owner partition stores owner ids
/// 0..k−1 in the same type (procFromIndex).
enum class Proc : std::uint8_t { R = 0, S = 1, P = 2 };

inline constexpr int kNumProcs = 3;

/// The most owners a partition may have.
inline constexpr int kMaxOwners = 64;

/// All processors in q-encoding order {R, S, P}.
inline constexpr std::array<Proc, kNumProcs> kAllProcs = {Proc::R, Proc::S,
                                                          Proc::P};

/// The two slower processors — the only legal *active* processors for a Push
/// (paper §VI-C: elements of the largest processor are never moved).
inline constexpr std::array<Proc, 2> kSlowProcs = {Proc::R, Proc::S};

/// Index of a processor into per-processor arrays.
constexpr int procIndex(Proc p) { return static_cast<int>(p); }

/// procIndex as an unsigned array slot (avoids sign-conversion noise at
/// subscript sites).
constexpr std::size_t procSlot(Proc p) { return static_cast<std::size_t>(p); }

/// Inverse of procIndex. `i` must be in [0, kMaxOwners).
constexpr Proc procFromIndex(int i) { return static_cast<Proc>(i); }

/// The owner id of position `rank` in a fastest-first speed list of
/// `owners` entries: rank 0 (the fastest) is owners − 1, rank r ≥ 1 is
/// r − 1. At three owners ranks 0, 1, 2 are P, R, S.
constexpr Proc ownerOfRank(int rank, int owners) {
  return procFromIndex(rank == 0 ? owners - 1 : rank - 1);
}

/// Single-letter name: 'R', 'S' or 'P'.
constexpr char procName(Proc p) {
  switch (p) {
    case Proc::R: return 'R';
    case Proc::S: return 'S';
    case Proc::P: return 'P';
  }
  return '?';
}

}  // namespace pushpart
