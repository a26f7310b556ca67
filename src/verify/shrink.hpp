// Counterexample shrinking — minimise a failing case before reporting it.
//
// A property failure found at n=87 with ratio 7.3:4.1:1 is nearly useless
// for debugging; the same failure at n=5 with ratio 2:1:1 is a unit test.
// shrinkCase greedily applies size- and ratio-reducing transformations while
// the caller's predicate still fails, QuickCheck-style: each round tries
// candidates in order (halve n toward the floor, decrement n, round ratio
// components down toward small integers, snap to the simplest ratio 2:1:1)
// and restarts from the first candidate that still fails. The fixpoint is
// the minimal failing case under these moves. The case's seed is never
// shrunk — it is what makes the dumped artifact replayable.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "grid/ratio.hpp"

namespace pushpart {

/// A replayable property-failure description: everything a generator needs
/// to rebuild the exact failing input.
struct FailingCase {
  int n = 0;
  Ratio ratio{2, 1, 1};
  std::uint64_t seed = 0;
  int style = 0;  ///< GenStyle index (or property-specific variant selector).

  std::string str() const;
};

/// True when the property HOLDS for `c`; false when it fails. Shrinking
/// keeps only transformations under which the property still fails.
using PropertyHolds = std::function<bool(const FailingCase&)>;

struct ShrinkOptions {
  int minN = 3;         ///< Never shrink n below this.
};

struct ShrinkResult {
  FailingCase minimal;
  int rounds = 0;       ///< Accepted shrink steps.
  int attempts = 0;     ///< Predicate evaluations spent.
};

/// Minimises `failing` (which must fail `holds` — checked) and returns the
/// smallest still-failing case reached. Deterministic for a deterministic
/// predicate.
ShrinkResult shrinkCase(const FailingCase& failing, const PropertyHolds& holds,
                        const ShrinkOptions& options = {});

}  // namespace pushpart
