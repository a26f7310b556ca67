#include "dfa/schedule.hpp"

#include <string>

#include "support/check.hpp"

namespace pushpart {

namespace {

std::vector<Proc> slowOwners(int owners) {
  PUSHPART_CHECK_MSG(owners >= 2 && owners <= kMaxOwners,
                     "a schedule needs 2.." << kMaxOwners << " owners, got "
                                            << owners);
  std::vector<Proc> slow;
  for (int x = 0; x + 1 < owners; ++x) slow.push_back(procFromIndex(x));
  return slow;
}

}  // namespace

Schedule Schedule::random(Rng& rng, int owners) {
  Schedule out;
  // Randomly choose which slow processor is considered first (paper §VI-A).
  std::vector<Proc> procs = slowOwners(owners);
  rng.shuffle(procs);

  for (Proc p : procs) {
    // 1–4 directions, distinct, in random order.
    std::vector<Direction> dirs(kAllDirections.begin(), kAllDirections.end());
    rng.shuffle(dirs);
    const auto howMany = 1 + rng.below(4);
    dirs.resize(howMany);
    for (Direction d : dirs) out.slots.push_back({p, d});
  }
  // Shuffle the combined order so direction applications interleave across
  // processors as well as within one.
  rng.shuffle(out.slots);
  return out;
}

Schedule Schedule::full(int owners) {
  Schedule out;
  for (Proc p : slowOwners(owners))
    for (Direction d : kAllDirections) out.slots.push_back({p, d});
  return out;
}

std::string Schedule::str() const {
  std::string out;
  for (const auto& slot : slots) {
    if (!out.empty()) out += ' ';
    if (slot.active == Proc::R || slot.active == Proc::S)
      out += procName(slot.active);
    else
      out += std::to_string(procIndex(slot.active));
    out += ':';
    out += directionName(slot.dir);
  }
  return out;
}

}  // namespace pushpart
