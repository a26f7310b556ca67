// The Push operation (paper §IV-A) — the primary analytical tool.
//
// A Push is an atomic transformation of a partition q into q1 that *cleans*
// the leading edge row/column of the active processor X's enclosing
// rectangle: every element of X on that edge is relocated strictly inward
// (in the push direction, staying inside X's enclosing rectangle), and each
// displaced owner receives X's vacated cell in exchange. The paper defines
// six legality types (§IV-A.1–6) that guarantee the Volume of Communication
// (Eq. 1) never increases and no processor's enclosing rectangle grows.
//
// This engine mirrors the paper's program (§VI-B): per-type destination
// finders with a monotone scan cursor, tried from the most restrictive type
// to the least. On top of the type predicates it enforces the paper's
// guarantees *transactionally*: the whole edge-clean is applied through an
// undo log, then VoC / enclosing-rectangle / conservation invariants are
// checked exactly; any violation rolls the attempt back. The invariants are
// therefore properties of the implementation, not merely of the proofs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "grid/bit_partition.hpp"
#include "grid/partition.hpp"
#include "push/direction.hpp"

namespace pushpart {

/// The paper's six Push types, ordered most to least restrictive.
/// Types One–Four strictly decrease VoC; Types Five–Six may leave it
/// unchanged.
enum class PushType {
  kType1 = 1,
  kType2 = 2,
  kType3 = 3,
  kType4 = 4,
  kType5 = 5,
  kType6 = 6,
};

constexpr const char* pushTypeName(PushType t) {
  switch (t) {
    case PushType::kType1: return "Type1";
    case PushType::kType2: return "Type2";
    case PushType::kType3: return "Type3";
    case PushType::kType4: return "Type4";
    case PushType::kType5: return "Type5";
    case PushType::kType6: return "Type6";
  }
  return "?";
}

/// Result of one push attempt.
struct PushOutcome {
  bool applied = false;                ///< Did the partition change?
  PushType type = PushType::kType1;    ///< Legality type that succeeded.
  Direction direction = Direction::Down;
  Proc active = Proc::R;
  std::int64_t vocBefore = 0;
  std::int64_t vocAfter = 0;
  int elementsMoved = 0;               ///< Elements of X relocated.

  bool improvedVoC() const { return applied && vocAfter < vocBefore; }
};

struct PushOptions {
  /// Permit Types Five and Six (VoC-preserving pushes). The DFA needs them to
  /// escape plateaus; beautify runs with them off so it cannot cycle.
  bool allowEqualVoC = true;
};

/// Attempts one Push of `active`'s edge in `dir`. On success the partition
/// is mutated and outcome.applied is true; on failure the partition is
/// untouched. `active` must be one of the slower processors R or S
/// (paper §VI-C: the largest processor is never pushed).
PushOutcome tryPush(Partition& q, Proc active, Direction dir,
                    const PushOptions& options = {});
/// The same push on the bitboard state: identical decisions, word scans.
PushOutcome tryPush(BitPartition& q, Proc active, Direction dir,
                    const PushOptions& options = {});

/// True when some push in `dirs` applies to `active`. Non-mutating (attempts
/// run on the real grid but are rolled back).
bool pushAvailable(const Partition& q, Proc active,
                   std::span<const Direction> dirs,
                   const PushOptions& options = {});
bool pushAvailable(const BitPartition& q, Proc active,
                   std::span<const Direction> dirs,
                   const PushOptions& options = {});

}  // namespace pushpart
