// Randomized push schedules (paper §VI-A1).
//
// A schedule fixes, for each slow processor, the subset of directions it may
// be pushed in and the interleaving order of (processor, direction) slots.
// The paper randomizes all three choices per run so no preconceived notion of
// the final shape biases the search: one run may push R only Down; another
// interleaves R:{Down,Left} with S:{Up,Right}; and so on. A partition over
// k owners draws the same way over its k − 1 slow owners.
#pragma once

#include <string>
#include <vector>

#include "grid/proc.hpp"
#include "push/direction.hpp"
#include "support/rng.hpp"

namespace pushpart {

/// One (active processor, direction) pair the DFA cycles through.
struct ScheduleSlot {
  Proc active = Proc::R;
  Direction dir = Direction::Down;

  friend bool operator==(const ScheduleSlot&, const ScheduleSlot&) = default;
};

/// An ordered list of slots; the DFA sweeps them round-robin.
struct Schedule {
  std::vector<ScheduleSlot> slots;

  /// Paper §VI-A1: shuffle the slow owners (R and S at three owners), for
  /// each independently draw how many directions (1–4) and which, then
  /// shuffle the combined slot order (covering single-direction, alternating
  /// and interleaved cases).
  static Schedule random(Rng& rng, int owners = kNumProcs);

  /// Every (slow owner, direction) combination, fixed order. Used by
  /// beautify-style full sweeps and tests.
  static Schedule full(int owners = kNumProcs);

  /// Human-readable, e.g. "R:Down R:Left S:Up" (owner ids in place of the
  /// letters past S).
  std::string str() const;
};

}  // namespace pushpart
