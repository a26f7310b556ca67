// Multi-threaded batch driver for DFA experiments (paper §VII).
//
// The paper ran ~10,000 DFA walks per speed ratio by fanning instances out
// over a cluster; this driver does the same with worker threads on one
// machine. Every run gets an independent RNG stream derived from the batch
// seed, so results are reproducible regardless of thread interleaving: run r
// always uses stream split(r).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dfa/dfa.hpp"
#include "grid/ratio.hpp"
#include "support/deadline.hpp"

namespace pushpart {

/// Which engine state runs the walks. Both make identical decisions (the
/// differential suite in src/verify enforces it); kBits is the default
/// because its word-granular legality scans test 64 destination cells at a
/// time, on scattered and condensed states alike, while every write stays
/// O(1) (bench/micro_push). kGrid remains for differential testing and as
/// the element-exact reference.
enum class BatchEngine { kBits, kGrid };

constexpr const char* batchEngineName(BatchEngine e) {
  switch (e) {
    case BatchEngine::kBits: return "bits";
    case BatchEngine::kGrid: return "grid";
  }
  return "?";
}

/// Fraction of batch runs that start from the clustered q0 builder instead
/// of the paper's scattered builder, diversifying start states.
inline constexpr double kClusteredStartFraction = 0.25;

struct BatchOptions {
  int n = 100;                ///< Matrix size per run (paper: 1000).
  Ratio ratio{2, 1, 1};
  int runs = 100;             ///< Walks to perform (paper: ~10,000). Must be >= 0.
  int threads = 0;            ///< 0 = hardware_concurrency. Must be >= 0.
  std::uint64_t seed = 1;     ///< Batch seed; run r uses stream split(r).
  /// Cooperative cancellation for the whole batch. Polled before every run
  /// is claimed, and threaded into each run's DfaOptions so in-flight walks
  /// stop at their next check point. A cancelled batch returns best-so-far:
  /// completed runs were delivered normally, the summary is marked
  /// truncated, and nothing throws. (Any token already set on `dfa.cancel`
  /// is replaced by this one.)
  CancelToken cancel;
  /// Engine state for the walks. Results are converted back to the element
  /// grid either way, so consumers are engine-agnostic; with a fixed seed
  /// the two engines produce bit-identical batches.
  BatchEngine engine = BatchEngine::kBits;
  DfaOptions dfa;
};

/// Context handed to the per-run callback.
struct BatchRun {
  BatchRun(int index, Schedule sched, DfaResult res)
      : runIndex(index), schedule(std::move(sched)), result(std::move(res)) {}

  int runIndex;
  Schedule schedule;
  DfaResult result;
};

/// One run that did not finish: the DFA walk or the onResult callback threw.
struct BatchFailure {
  int runIndex = 0;
  std::string message;  ///< what() of the exception (or "unknown error").
};

/// Batch outcome: how many runs completed and which ones failed. A batch
/// with failures still ran every other run to completion.
struct BatchSummary {
  int completed = 0;      ///< Runs whose walk reached a natural stop.
  int truncatedRuns = 0;  ///< Runs delivered with DfaStop::kCancelled.
  int skippedRuns = 0;    ///< Runs never started (cancel fired first).
  std::vector<BatchFailure> failures;  ///< Sorted by runIndex.

  bool allCompleted() const { return failures.empty() && !truncated(); }
  /// True when cancellation cut the batch short: some runs were skipped or
  /// stopped mid-walk. Completed runs' results are valid best-so-far
  /// evidence.
  bool truncated() const { return truncatedRuns > 0 || skippedRuns > 0; }
};

/// Executes `options.runs` DFA walks, invoking `onResult` for each completed
/// run. The callback is serialized (called under a mutex, from worker
/// threads) so aggregation code needs no locking of its own.
///
/// A run that throws — from the walk itself or from `onResult` — is recorded
/// in the returned summary (index + message) and the batch carries on with
/// the remaining runs; worker threads never die and nothing is rethrown.
/// Callers that require a clean batch should check summary.allCompleted().
///
/// Cancellation (options.cancel) is cooperative: runs already in flight stop
/// at their next DFA check point and are delivered to `onResult` with
/// result.stop == DfaStop::kCancelled (consumers may filter on it); runs not
/// yet claimed are skipped. The summary reports both counts.
BatchSummary runBatch(const BatchOptions& options,
                      const std::function<void(const BatchRun&)>& onResult);

}  // namespace pushpart
