// The DFA search program (paper §V–§VI): random start state, repeated Push,
// condensed accept states.
//
// The paper frames the search as a DFA: states Q are all element arrangements,
// the alphabet Σ is (active processor, direction), the transition function δ
// is the Push operation, q0 is random, and the accept states F are the fixed
// points where no legal Push remains. runDfa drives one such walk to an
// accept state:
//
//   * It sweeps the schedule's slots round-robin, applying every push that
//     fires; a full sweep with no applied push means the partition is
//     condensed w.r.t. the schedule's direction set (paper §VI-C).
//   * VoC-preserving pushes (Types Five/Six) could in principle wander or
//     cycle forever; state hashing at non-improving sweep boundaries detects
//     cycles, and a stall cap bounds plateaus (design ablation in DESIGN.md).
//   * Optionally a beautify pass (paper §VIII-C) then applies the strictly
//     improving pushes the schedule never selected, turning Archetype C
//     interlocks into Archetype A.
//
// The walk is a template over the engine state (runDfaT): the element-exact
// Partition and the bitboard BitPartition both drive it through the shared
// push engine, and a lockstep walk makes identical decisions on either
// state. Cycle detection uses the state's hash(), and BitPartition's is the
// grid's own, so the two engines reach the same cycle verdicts — hash
// collisions included, which can only ever cause a premature plateau
// verdict, and then on both engines alike.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dfa/schedule.hpp"
#include "grid/bit_partition.hpp"
#include "grid/partition.hpp"
#include "grid/render.hpp"
#include "push/beautify.hpp"
#include "push/engine.hpp"
#include "push/push.hpp"
#include "support/deadline.hpp"

namespace pushpart {

/// Consecutive non-improving sweeps a walk tolerates before declaring a
/// stall.
inline constexpr int kMaxStalledSweeps = 50;

struct DfaOptions {
  /// Hard cap on applied pushes (safety net; never hit in practice).
  std::int64_t maxPushes = 50'000'000;
  /// Snapshot the partition every `traceEvery` applied pushes (0 = off).
  std::int64_t traceEvery = 0;
  /// Rendering budget for trace snapshots (characters per side).
  int traceCells = 50;
  /// Run the beautify pass on the condensed result (paper §VIII-C).
  bool beautifyResult = true;
  /// Cooperative cancellation: polled at every sweep boundary and every
  /// `cancelCheckEvery` applied pushes. A cancelled walk stops with
  /// DfaStop::kCancelled and returns its current (always-valid) partition —
  /// never an exception, never a torn state. The beautify pass is skipped
  /// for cancelled walks (the caller asked for time back, not polish).
  CancelToken cancel;
  std::int64_t cancelCheckEvery = 1024;
};

/// Point-in-time view of a run, for Fig. 7 style visualisation.
struct TraceSnapshot {
  std::int64_t pushesApplied = 0;
  std::int64_t voc = 0;
  std::string art;  ///< renderAscii() at options.traceCells granularity.
};

/// Why the walk stopped.
enum class DfaStop {
  kCondensed,     ///< Full sweep with no applicable push — an accept state.
  kCycle,         ///< Revisited a state on a VoC plateau.
  kStalled,       ///< Too many non-improving sweeps.
  kPushBudget,    ///< options.maxPushes exhausted.
  kCancelled,     ///< options.cancel fired; best-so-far state returned.
};

constexpr const char* dfaStopName(DfaStop s) {
  switch (s) {
    case DfaStop::kCondensed: return "condensed";
    case DfaStop::kCycle: return "cycle";
    case DfaStop::kStalled: return "stalled";
    case DfaStop::kPushBudget: return "push-budget";
    case DfaStop::kCancelled: return "cancelled";
  }
  return "?";
}

template <typename Q>
struct DfaResultT {
  /// Engine states are not default-constructible, so neither is the result;
  /// the runner seeds it with the start state and mutates in place.
  explicit DfaResultT(Q start) : final(std::move(start)) {}

  Q final;  ///< The accept-state partition (post-beautify if enabled).
  DfaStop stop = DfaStop::kCondensed;
  std::int64_t pushesApplied = 0;
  std::int64_t sweeps = 0;
  std::int64_t vocStart = 0;
  std::int64_t vocEnd = 0;
  BeautifyResult beautify;  ///< Zeroed when options.beautifyResult is false.
  std::vector<TraceSnapshot> trace;
};

using DfaResult = DfaResultT<Partition>;

/// Trace-rendering hook, one overload per engine state. Rendering is off the
/// hot path (traces are explicitly requested).
inline std::string dfaTraceArt(const Partition& q, int cells) {
  return renderAscii(q, cells);
}
inline std::string dfaTraceArt(const BitPartition& q, int cells) {
  return renderAscii(q.grid(), cells);
}

/// Runs the DFA from `q0` under `schedule` on any engine state. The returned
/// partition is an accept state of the schedule's direction set (and, with
/// beautify on, has no strictly-improving push in any direction).
template <typename Q>
DfaResultT<Q> runDfaT(Q q0, const Schedule& schedule,
                      const DfaOptions& options = {}) {
  PUSHPART_CHECK_MSG(!schedule.slots.empty(), "schedule has no slots");
  DfaResultT<Q> result(std::move(q0));
  Q& q = result.final;
  result.vocStart = q.volumeOfCommunication();

  auto maybeSnapshot = [&](bool force) {
    if (options.traceEvery <= 0) return;
    if (!force && (result.trace.empty()
                       ? result.pushesApplied < 1
                       : result.pushesApplied - result.trace.back().pushesApplied <
                             options.traceEvery))
      return;
    result.trace.push_back({result.pushesApplied, q.volumeOfCommunication(),
                            dfaTraceArt(q, options.traceCells)});
  };
  maybeSnapshot(true);  // q0

  std::unordered_set<std::uint64_t> plateauStates;
  int stalledSweeps = 0;
  bool running = true;
  const std::int64_t cancelEvery =
      options.cancelCheckEvery > 0 ? options.cancelCheckEvery : 1;

  // Sweep boundaries and every cancelEvery-th push poll the token; a push is
  // transactional, so stopping between pushes always leaves a valid state.
  if (options.cancel.cancelled()) {
    result.stop = DfaStop::kCancelled;
    running = false;
  }

  while (running) {
    ++result.sweeps;
    bool anyApplied = false;
    bool anyImproved = false;
    for (const ScheduleSlot& slot : schedule.slots) {
      const PushOutcome out = tryPushState(q, slot.active, slot.dir);
      if (!out.applied) continue;
      anyApplied = true;
      anyImproved |= out.improvedVoC();
      ++result.pushesApplied;
      maybeSnapshot(false);
      if (result.pushesApplied >= options.maxPushes) {
        result.stop = DfaStop::kPushBudget;
        running = false;
        break;
      }
      if (result.pushesApplied % cancelEvery == 0 &&
          options.cancel.cancelled()) {
        result.stop = DfaStop::kCancelled;
        running = false;
        break;
      }
    }
    if (!running) break;

    if (options.cancel.cancelled()) {
      result.stop = DfaStop::kCancelled;
      break;
    }

    if (!anyApplied) {
      result.stop = DfaStop::kCondensed;
      break;
    }
    if (anyImproved) {
      stalledSweeps = 0;
      plateauStates.clear();
      continue;
    }
    // A sweep that applied only VoC-preserving pushes: detect cycles by
    // state hash, and bound how long a plateau may wander.
    if (!plateauStates.insert(q.hash()).second) {
      result.stop = DfaStop::kCycle;
      break;
    }
    if (++stalledSweeps >= kMaxStalledSweeps) {
      result.stop = DfaStop::kStalled;
      break;
    }
  }

  if (options.beautifyResult && result.stop != DfaStop::kCancelled)
    result.beautify = beautifyState(q);

  result.vocEnd = q.volumeOfCommunication();
  maybeSnapshot(true);  // final state
  return result;
}

/// Grid-typed entry point (the historical API; all serving-layer callers use
/// this signature).
DfaResult runDfa(Partition q0, const Schedule& schedule,
                 const DfaOptions& options = {});

}  // namespace pushpart
