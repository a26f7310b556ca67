#include "atlas/prefetch.hpp"

#include "atlas/builder.hpp"

namespace pushpart {

AtlasPrefetcher::AtlasPrefetcher(std::shared_ptr<PlanAtlas> atlas,
                                 AtlasPrefetchOptions options)
    : atlas_(std::move(atlas)), options_(options) {
  worker_ = std::thread([this] { run(); });
}

AtlasPrefetcher::~AtlasPrefetcher() { stop(); }

void AtlasPrefetcher::enqueueOne(int i, int j) {
  if (!atlas_->spec().validCell(i, j)) return;
  const std::optional<AtlasCell> existing = atlas_->cell(i, j);
  if (existing && existing->solved) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return;
  const std::pair<int, int> key{i, j};
  if (queued_.count(key)) return;
  if (queue_.size() >= options_.maxQueue) {
    ++counters_.dropped;
    return;
  }
  queue_.push_back(key);
  queued_.insert(key);
  ++counters_.requested;
  cv_.notify_one();
}

void AtlasPrefetcher::enqueueNeighborhood(int i, int j) {
  enqueueOne(i, j);
  enqueueOne(i - 1, j);
  enqueueOne(i + 1, j);
  enqueueOne(i, j - 1);
  enqueueOne(i, j + 1);
}

void AtlasPrefetcher::run() {
  for (;;) {
    std::pair<int, int> cell;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      cell = queue_.front();
      queue_.pop_front();
      queued_.erase(cell);
    }
    std::optional<AtlasCell> solved =
        solveAtlasCell(atlas_->spec(), atlas_->info(), cell.first,
                       cell.second);
    if (!solved) continue;
    solved->origin = CellOrigin::kPrefetched;
    atlas_->insert(cell.first, cell.second, *solved);
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.solved;
  }
}

void AtlasPrefetcher::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

AtlasPrefetcher::Counters AtlasPrefetcher::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace pushpart
