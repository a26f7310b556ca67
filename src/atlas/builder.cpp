#include "atlas/builder.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "bounds/bounds.hpp"
#include "dfa/batch.hpp"
#include "model/models.hpp"
#include "model/optimal.hpp"
#include "support/stopwatch.hpp"

namespace pushpart {

SearchEvidence searchEvidence(const BatchOptions& batch, Algo algo,
                              const Machine& machine, Topology topology,
                              StarConfig star,
                              const std::function<void(int)>& onRun) {
  SearchEvidence out;
  int delivered = 0;
  out.summary = runBatch(batch, [&](const BatchRun& run) {
    ++delivered;
    if (onRun) onRun(delivered);
    // A cancelled walk's partition is intact (pushes are transactional) but
    // it never reached an accept state.
    if (run.result.stop == DfaStop::kCancelled) return;
    const ModelResult m =
        evalModel(algo, run.result.final, machine, topology, star);
    if (out.completed == 0 || m.execSeconds < out.bestExecSeconds) {
      out.bestExecSeconds = m.execSeconds;
      out.bestVoc = run.result.final.volumeOfCommunication();
    }
    ++out.completed;
  });
  return out;
}

std::optional<AtlasCell> solveAtlasCell(const AtlasGridSpec& spec,
                                        const AtlasBuildInfo& info, int i,
                                        int j) {
  if (!spec.validCell(i, j)) return std::nullopt;
  const Ratio ratio = spec.ratioAt(i, j);
  Machine machine = info.machine;
  machine.ratio = ratio;

  const std::vector<RankedCandidate> ranked =
      rankCandidates(info.algo, info.n, machine, info.topology);
  if (ranked.empty()) return std::nullopt;

  // Winner snapping: candidates within tieSnapPct of the best form a tie
  // group; the group's smallest enum value is the cell's winner. Without
  // this, shapes with identical closed forms (Block- vs
  // Traditional-Rectangle, both 1 + (R_r+S_r)/T) alternate by O(1/n)
  // integer-granularity rounding and every such cell pair reads as a fake
  // crossover boundary.
  const double bestExec = ranked.front().model.execSeconds;
  const double tieCutoff = bestExec * (1.0 + info.tieSnapPct / 100.0);
  const RankedCandidate* winner = &ranked.front();
  double runnerUpExec = -1.0;
  for (const RankedCandidate& c : ranked) {
    if (c.model.execSeconds <= tieCutoff) {
      if (static_cast<int>(c.shape) < static_cast<int>(winner->shape))
        winner = &c;
    } else if (runnerUpExec < 0.0) {
      runnerUpExec = c.model.execSeconds;
    }
  }

  AtlasCell cell;
  cell.solved = true;
  cell.shape = winner->shape;
  cell.normVoc = static_cast<double>(winner->voc) /
                 (static_cast<double>(info.n) * static_cast<double>(info.n));
  cell.execSeconds = winner->model.execSeconds;
  cell.runnerUpGapPct =
      runnerUpExec < 0.0
          ? AtlasCell::kMaxGapPct
          : std::min(AtlasCell::kMaxGapPct,
                     (runnerUpExec - bestExec) / bestExec * 100.0);
  cell.lowerBoundGapPct = std::min(
      AtlasCell::kMaxGapPct,
      optimalityGapPct(winner->voc, vocLowerBound(info.n, ratio)));

  if (info.searchBacked && info.searchRuns > 0) {
    // The offline analogue of the oracle's tier B: a seeded DFA batch whose
    // condensed finals cross-check the closed-form ranking. Seed = root +
    // cell index, so a rebuild of any subset reproduces bit-identically.
    BatchOptions batch;
    batch.n = info.n;
    batch.ratio = ratio;
    batch.runs = info.searchRuns;
    batch.threads = 1;
    batch.seed = info.seed + static_cast<std::uint64_t>(i) *
                                 static_cast<std::uint64_t>(spec.rrSteps) +
                 static_cast<std::uint64_t>(j);
    cell.searchConfirmed =
        searchEvidence(batch, info.algo, machine, info.topology, {})
            .confirms(winner->model.execSeconds);
  }
  return cell;
}

std::shared_ptr<PlanAtlas> buildAtlas(const AtlasBuildOptions& options,
                                      AtlasBuildReport* report) {
  Stopwatch timer;
  auto atlas = std::make_shared<PlanAtlas>(options.spec, options.info);

  std::vector<std::pair<int, int>> work;
  for (int i = 0; i < options.spec.prSteps; ++i)
    for (int j = 0; j < options.spec.rrSteps; ++j)
      if (options.spec.validCell(i, j)) work.emplace_back(i, j);

  AtlasBuildReport local;
  local.attempted = work.size();

  int threads = options.threads;
  if (threads <= 0)
    threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  threads = std::min<int>(threads, static_cast<int>(work.size()));
  if (threads < 1) threads = 1;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> solved{0};
  std::atomic<std::size_t> confirmed{0};
  std::atomic<std::size_t> done{0};
  std::mutex progressMutex;

  auto worker = [&]() {
    for (;;) {
      const std::size_t w = next.fetch_add(1, std::memory_order_relaxed);
      if (w >= work.size()) return;
      const auto [i, j] = work[w];
      if (std::optional<AtlasCell> cell =
              solveAtlasCell(options.spec, options.info, i, j)) {
        atlas->insert(i, j, *cell);
        solved.fetch_add(1, std::memory_order_relaxed);
        if (cell->searchConfirmed)
          confirmed.fetch_add(1, std::memory_order_relaxed);
      }
      const std::size_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options.onCell) {
        std::lock_guard<std::mutex> lock(progressMutex);
        options.onCell(d, work.size());
      }
    }
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  local.solved = solved.load();
  local.failed = local.attempted - local.solved;
  local.searchConfirmed = confirmed.load();
  local.boundary = atlas->boundaryCells().size();
  local.seconds = timer.seconds();
  if (report) *report = local;
  return atlas;
}

}  // namespace pushpart
