// Speculative cell prefetch: when a serving lookup misses on an unsolved
// cell, solve that cell and its 4-neighborhood in the background so the
// *next* request in the same ratio region hits.
//
// One worker thread drains a bounded, deduplicated queue of cell
// coordinates; each is solved with solveAtlasCell — bit-identical to what
// the offline builder would have produced (same ranking, same snapping,
// same per-cell seed) — and inserted with origin = kPrefetched. A full
// queue drops requests (counted): prefetch is an optimization, never a
// place to build backpressure. enqueueNeighborhood() is what the oracle
// calls on a miss; stop() drains nothing and joins promptly.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "atlas/atlas.hpp"

namespace pushpart {

struct AtlasPrefetchOptions {
  std::size_t maxQueue = 64;  ///< Pending cells beyond this are dropped.
};

class AtlasPrefetcher {
 public:
  /// Starts the worker. The atlas must outlive the prefetcher (the oracle
  /// owns both through shared_ptr / member order).
  explicit AtlasPrefetcher(std::shared_ptr<PlanAtlas> atlas,
                           AtlasPrefetchOptions options = {});
  ~AtlasPrefetcher();

  AtlasPrefetcher(const AtlasPrefetcher&) = delete;
  AtlasPrefetcher& operator=(const AtlasPrefetcher&) = delete;

  /// Queues the cell at (i, j) plus its valid, still-unsolved 4-neighbors.
  /// Already-solved and already-queued cells are filtered out. Thread-safe;
  /// never blocks.
  void enqueueNeighborhood(int i, int j);

  /// Signals the worker and joins. Queued-but-unsolved cells are abandoned.
  void stop();

  struct Counters {
    std::uint64_t requested = 0;  ///< Cells accepted onto the queue.
    std::uint64_t solved = 0;     ///< Cells solved and inserted.
    std::uint64_t dropped = 0;    ///< Cells rejected by the full queue.
  };
  Counters counters() const;

 private:
  void enqueueOne(int i, int j);
  void run();

  std::shared_ptr<PlanAtlas> atlas_;
  AtlasPrefetchOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<int, int>> queue_;
  std::set<std::pair<int, int>> queued_;  ///< Dedup of pending cells.
  bool stopping_ = false;
  Counters counters_;

  std::thread worker_;
};

}  // namespace pushpart
