// Sharded LRU result cache with in-flight request coalescing.
//
// The serving layer's hot path: map a canonical key to its PlanAnswer while
// (a) bounding memory with per-shard LRU eviction and (b) guaranteeing that
// concurrent identical requests trigger exactly one underlying solve — the
// first requester computes, everyone else blocks on a shared future of the
// same computation ("singleflight"). Shards are selected by the key's FNV
// hash; each shard has its own mutex, so unrelated keys never contend.
//
// A solve that throws propagates the exception to the initiating caller and
// every coalesced waiter, and caches nothing: the next request for that key
// retries the computation.
//
// Two overload-resilience rules (DESIGN.md §12) live here:
//   * only full-fidelity answers are inserted — a deadline-degraded or
//     truncated answer is handed to its waiters but never cached, so the
//     next request retries at full quality;
//   * a coalesced waiter's wait is bounded by the caller's Deadline. If the
//     producer is slow — or dead — the waiter escapes with timedOut set
//     instead of blocking forever, and the serving layer degrades.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/answer.hpp"
#include "serve/request.hpp"
#include "support/counter.hpp"
#include "support/deadline.hpp"

namespace pushpart {

class PlanCache {
 public:
  /// `capacity` answers total, spread over `shards` independently-locked
  /// shards (each holds at least one entry). Throws std::invalid_argument
  /// when capacity or shards is zero.
  PlanCache(std::size_t capacity, std::size_t shards);

  /// How a lookup was satisfied.
  struct Outcome {
    PlanAnswer answer;
    bool hit = false;        ///< Served from the cache, no solve.
    bool coalesced = false;  ///< Waited on another thread's in-flight solve.
    /// The bounded coalesced wait expired before the producer delivered;
    /// `answer` is meaningless and the caller must degrade or retry.
    bool timedOut = false;
  };

  /// Returns the cached answer for `key`, or runs `solve` to produce (and
  /// cache) it. Concurrent calls with the same key while a solve is in
  /// flight block on that solve's result instead of recomputing — but never
  /// past `deadline`: a waiter whose deadline expires returns with
  /// Outcome.timedOut set (the producer's eventual answer still lands in the
  /// cache if it is full fidelity). Answers for which
  /// PlanAnswer::fullFidelity() is false are delivered but not cached.
  Outcome getOrCompute(const CanonicalKey& key,
                       const std::function<PlanAnswer()>& solve,
                       const Deadline& deadline = Deadline::unlimited());

  /// Lock-and-return peek: the cached answer for `key` (refreshing its LRU
  /// position and counting a hit), or nullopt without counting anything.
  /// Never waits on in-flight solves.
  std::optional<PlanAnswer> tryGet(const CanonicalKey& key);

  /// Drops the entry for `key`, if resident, so it can never be served
  /// again — the staleness hook for drift-adaptive serving (DESIGN.md §16).
  /// Returns whether an entry was actually dropped; a drop counts one
  /// staleInvalidation. An in-flight solve for the key is unaffected (its
  /// eventual full-fidelity answer re-inserts: it is fresh by definition —
  /// it was computed after the invalidation decision).
  bool invalidate(const CanonicalKey& key);

  /// Monotonic counters across the cache's lifetime.
  struct Counters {
    Counter hits;
    Counter misses;     ///< Lookups that ran the solve themselves.
    Counter coalesced;  ///< Lookups that joined an in-flight solve.
    Counter evictions;
    Counter waitTimeouts;  ///< Coalesced waits that hit their deadline.
    Counter uncacheable;   ///< Solves delivered but not cached (degraded).
    Counter staleInvalidations;  ///< Entries dropped via invalidate().
    std::size_t entries = 0;     ///< Current resident answers (snapshot only).
  };
  Counters counters() const;

  /// One resident (key, answer) pair, as exported for snapshots.
  struct SnapshotEntry {
    std::string key;
    PlanAnswer answer;
  };

  /// Every resident entry in a deterministic order: shard by shard, least
  /// recently used first (so replaying the list through insertWarm rebuilds
  /// identical per-shard recency). In-flight solves are not included.
  std::vector<SnapshotEntry> exportEntries() const;

  /// Inserts a restored or replicated entry at the most-recent end of its
  /// shard, evicting as needed. Returns false, inserting nothing, for an
  /// answer that is not full fidelity: the cache never holds one, whichever
  /// path offers it. Counts neither hit nor miss (restores are not
  /// traffic); evictions it causes are counted. `keyText` must be a
  /// canonical key's text (its FNV-1a hash selects the shard).
  bool insertWarm(const std::string& keyText, const PlanAnswer& answer);

  /// Drops every cached entry (in-flight solves are unaffected; they insert
  /// into the emptied cache when they land). Counters keep accumulating.
  void clear();

 private:
  struct Entry {
    std::string key;
    PlanAnswer answer;
  };
  struct Shard {
    std::mutex mutex;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    /// Solves currently running, by key; waiters share the future.
    std::unordered_map<std::string, std::shared_future<PlanAnswer>> inflight;
  };

  Shard& shardFor(const CanonicalKey& key);
  Shard& shardForHash(std::uint64_t hash);
  /// Inserts into a locked shard's LRU front and evicts past capacity.
  void insertLocked(Shard& shard, const std::string& keyText,
                    const PlanAnswer& answer);

  std::size_t perShardCapacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  Counters counters_;
};

}  // namespace pushpart
