// Partition construction: the paper's randomized q0 plus test helpers.
#pragma once

#include <string>

#include "grid/partition.hpp"
#include "grid/ratio.hpp"
#include "support/rng.hpp"

namespace pushpart {

/// Random start state q0 per the paper §VI-A2: all cells start on the fastest
/// processor P; then for each slower processor X in turn, random (i, j)
/// positions are drawn and assigned to X when still owned by P, until X holds
/// its ratio share of elements.
Partition randomPartition(int n, const Ratio& ratio, Rng& rng);

/// The same scatter over speeds.owners() owners: the slow owners claim their
/// counts in id order from the fastest owner's cells. At three owners it
/// draws exactly what the Ratio overload draws.
Partition randomPartition(int n, const NSpeeds& speeds, Rng& rng);

/// Random start state where the slower processors receive *contiguous random
/// rectangles-of-cells runs* instead of isolated cells. Covers a different
/// corner of the start-state space (clustered rather than scattered q0);
/// used by the batch runner to diversify searches.
Partition randomClusteredPartition(int n, const Ratio& ratio, Rng& rng);

/// Builds a partition from ASCII art, one row per line, characters
/// 'P', 'R', 'S' (whitespace-trimmed, blank lines skipped). All rows must
/// have equal length and the grid must be square. Intended for tests:
///
///   fromAscii("PPR\n"
///             "PSR\n"
///             "PPR\n");
Partition fromAscii(const std::string& art);

/// Inverse of fromAscii (no trailing newline).
std::string toAscii(const Partition& q);

}  // namespace pushpart
