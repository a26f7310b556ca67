// Beautify pass (paper §VIII-C).
//
// A DFA run restricted to a random subset of push directions can halt on an
// Archetype C "interlock" partition even though legal pushes remain in the
// directions the schedule never selected. The paper's program resolves this
// with a beautify function; ours applies pushes of *all* types (including
// the VoC-preserving Types Five and Six, which are what consolidate
// hole-punched stripes into solid rectangles) for both slow processors in
// all four directions until no push applies. Termination is guaranteed
// without any VoC progress requirement: every applied push strictly shrinks
// the active processor's enclosing-rectangle area — its edge row is cleaned
// and destinations lie strictly inside — while no other rectangle may grow,
// so Σ rectArea(R) + rectArea(S) is a strictly decreasing non-negative
// potential.
#pragma once

#include "grid/bit_partition.hpp"
#include "grid/partition.hpp"
#include "push/push.hpp"

namespace pushpart {

struct BeautifyResult {
  int pushesApplied = 0;
  std::int64_t vocBefore = 0;
  std::int64_t vocAfter = 0;
};

/// Applies pushes of every type in every direction for R and S until none
/// applies, interleaved with VoC-guarded region compaction (see
/// compactRegion). Never increases VoC; always terminates (rect-area
/// potential plus compaction idempotence).
BeautifyResult beautify(Partition& q);
BeautifyResult beautify(BitPartition& q);

/// Re-lays processor x's cells inside its current enclosing rectangle as a
/// solid bottom-up block (full rows plus one contiguous partial top row),
/// swapping the displaced owners into the vacated cells. This is the
/// normalisation half of the paper's beautify (§VIII-C): condensed regions
/// can retain a few interior holes that are *communication-irrelevant* —
/// their rows and columns already carry the other processors — yet make the
/// shape cosmetically non-rectangular; compaction relocates those holes to
/// the ragged edge line. Transactional: commits only when VoC does not
/// increase and no processor's enclosing rectangle grows; otherwise rolls
/// back. Returns whether the partition changed.
bool compactRegion(Partition& q, Proc x);
bool compactRegion(BitPartition& q, Proc x);

/// True when no push (of any type, including VoC-preserving Types Five/Six)
/// applies to either slow processor in any direction — the paper's "fully
/// condensed" end condition over the unrestricted direction set.
bool fullyCondensed(const Partition& q);
bool fullyCondensed(const BitPartition& q);

}  // namespace pushpart
