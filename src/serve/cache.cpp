#include "serve/cache.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "support/fnv.hpp"

namespace pushpart {

PlanCache::PlanCache(std::size_t capacity, std::size_t shards) {
  if (capacity == 0)
    throw std::invalid_argument("PlanCache: capacity must be positive");
  if (shards == 0)
    throw std::invalid_argument("PlanCache: shard count must be positive");
  if (shards > capacity) shards = capacity;  // every shard holds >= 1 entry
  perShardCapacity_ = (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

PlanCache::Shard& PlanCache::shardFor(const CanonicalKey& key) {
  return shardForHash(key.hash);
}

PlanCache::Shard& PlanCache::shardForHash(std::uint64_t hash) {
  return *shards_[hash % shards_.size()];
}

void PlanCache::insertLocked(Shard& shard, const std::string& keyText,
                             const PlanAnswer& answer) {
  shard.lru.push_front(Entry{keyText, answer});
  shard.index[keyText] = shard.lru.begin();
  while (shard.lru.size() > perShardCapacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    counters_.evictions.add();
  }
}

std::optional<PlanAnswer> PlanCache::tryGet(const CanonicalKey& key) {
  Shard& shard = shardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key.text);
  if (it == shard.index.end()) return std::nullopt;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  counters_.hits.add();
  return it->second->answer;
}

bool PlanCache::invalidate(const CanonicalKey& key) {
  Shard& shard = shardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key.text);
  if (it == shard.index.end()) return false;
  shard.lru.erase(it->second);
  shard.index.erase(it);
  counters_.staleInvalidations.add();
  return true;
}

PlanCache::Outcome PlanCache::getOrCompute(
    const CanonicalKey& key, const std::function<PlanAnswer()>& solve,
    const Deadline& deadline) {
  Shard& shard = shardFor(key);

  std::shared_future<PlanAnswer> wait;
  std::promise<PlanAnswer> mine;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (auto it = shard.index.find(key.text); it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      counters_.hits.add();
      return Outcome{it->second->answer, /*hit=*/true, /*coalesced=*/false};
    }
    if (auto it = shard.inflight.find(key.text); it != shard.inflight.end()) {
      counters_.coalesced.add();
      wait = it->second;
    } else {
      counters_.misses.add();
      shard.inflight.emplace(key.text, mine.get_future().share());
    }
  }

  if (wait.valid()) {
    // Joined someone else's solve. Block no longer than the deadline allows:
    // a stuck (or dead) producer must not take its waiters down with it.
    // Note the bound is a real duration — with an injected FakeClock the
    // deadline's *remaining* budget is still honoured as wall time.
    if (!deadline.isUnlimited()) {
      const auto budget =
          std::chrono::duration<double>(deadline.remainingSeconds());
      if (wait.wait_for(budget) != std::future_status::ready) {
        counters_.waitTimeouts.add();
        Outcome out;
        out.coalesced = true;
        out.timedOut = true;
        return out;
      }
    }
    // get() rethrows the producer's failure, exactly as before.
    return Outcome{wait.get(), /*hit=*/false, /*coalesced=*/true};
  }

  // We own the solve. Run it unlocked so other shards — and other keys in
  // this shard — keep serving.
  try {
    PlanAnswer answer = solve();
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.inflight.erase(key.text);
      // A clear() may have raced us, but no other thread can have inserted
      // this key (they'd have coalesced); insert fresh. Degraded answers are
      // delivered to waiters but never cached: the next request retries at
      // full quality.
      if (answer.fullFidelity()) {
        insertLocked(shard, key.text, answer);
      } else {
        counters_.uncacheable.add();
      }
    }
    mine.set_value(answer);
    return Outcome{std::move(answer), /*hit=*/false, /*coalesced=*/false};
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.inflight.erase(key.text);
    }
    mine.set_exception(std::current_exception());
    throw;
  }
}

PlanCache::Counters PlanCache::counters() const {
  Counters c = counters_;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    c.entries += shard->lru.size();
  }
  return c;
}

std::vector<PlanCache::SnapshotEntry> PlanCache::exportEntries() const {
  std::vector<SnapshotEntry> entries;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    // Least recently used first: replaying through insertWarm (which pushes
    // to the MRU end) reproduces this shard's recency order exactly.
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it)
      entries.push_back(SnapshotEntry{it->key, it->answer});
  }
  return entries;
}

bool PlanCache::insertWarm(const std::string& keyText,
                           const PlanAnswer& answer) {
  if (!answer.fullFidelity()) return false;
  Shard& shard = shardForHash(fnv1a(keyText));
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (auto it = shard.index.find(keyText); it != shard.index.end()) {
    // Duplicate restore: refresh in place rather than double-insert.
    it->second->answer = answer;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return true;
  }
  insertLocked(shard, keyText, answer);
  return true;
}

void PlanCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
}

}  // namespace pushpart
