#include "dfa/batch.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "grid/builder.hpp"
#include "support/check.hpp"

namespace pushpart {

BatchSummary runBatch(const BatchOptions& options,
                      const std::function<void(const BatchRun&)>& onResult) {
  PUSHPART_CHECK_MSG(options.runs >= 0,
                     "BatchOptions.runs must be >= 0, got " << options.runs);
  PUSHPART_CHECK_MSG(options.threads >= 0,
                     "BatchOptions.threads must be >= 0 (0 = hardware "
                     "concurrency), got " << options.threads);
  PUSHPART_CHECK(options.n > 0);
  PUSHPART_CHECK_MSG(options.ratio.valid(),
                     "invalid ratio " << options.ratio.str());

  const unsigned hw = std::thread::hardware_concurrency();
  const int threads = options.threads > 0
                          ? options.threads
                          : static_cast<int>(hw > 0 ? hw : 2);

  std::atomic<int> next{0};
  std::atomic<int> completed{0};
  std::atomic<int> truncatedRuns{0};
  std::atomic<int> skippedRuns{0};
  std::mutex resultMutex;
  std::mutex failureMutex;
  std::vector<BatchFailure> failures;

  const Rng master(options.seed);

  // The batch token governs every walk: in-flight runs observe it at their
  // next DFA check point, unclaimed runs are skipped outright.
  DfaOptions dfaOptions = options.dfa;
  dfaOptions.cancel = options.cancel;

  auto worker = [&]() {
    for (;;) {
      const int run = next.fetch_add(1);
      if (run >= options.runs) return;
      if (options.cancel.cancelled()) {
        skippedRuns.fetch_add(1);
        continue;  // keep draining indices so skipped runs are counted
      }
      // A failed run — walk or callback — is recorded and skipped; the
      // worker stays alive and the rest of the batch still runs.
      try {
        // Independent, reproducible stream per run index.
        Rng rng = master.split(static_cast<std::uint64_t>(run));

        // The RNG draw order is engine-independent (schedule, then the grid
        // q0 builders), so kBits and kGrid batches walk the same start states
        // under the same schedules and — the engines being lockstep-equal —
        // produce bit-identical results.
        Schedule schedule = Schedule::random(rng);
        Partition q0 =
            rng.chance(kClusteredStartFraction)
                ? randomClusteredPartition(options.n, options.ratio, rng)
                : randomPartition(options.n, options.ratio, rng);
        DfaResult res =
            options.engine == BatchEngine::kBits
                ? [&] {
                    DfaResultT<BitPartition> fast = runDfaT(
                        BitPartition(std::move(q0)), schedule, dfaOptions);
                    // Hand back the element grid so every downstream
                    // consumer (serve, atlas, benches) stays engine-agnostic.
                    DfaResult out(fast.final.grid());
                    out.stop = fast.stop;
                    out.pushesApplied = fast.pushesApplied;
                    out.sweeps = fast.sweeps;
                    out.vocStart = fast.vocStart;
                    out.vocEnd = fast.vocEnd;
                    out.beautify = fast.beautify;
                    out.trace = std::move(fast.trace);
                    return out;
                  }()
                : runDfa(std::move(q0), schedule, dfaOptions);
        BatchRun ctx(run, schedule, std::move(res));
        const bool cancelled = ctx.result.stop == DfaStop::kCancelled;

        {
          std::lock_guard<std::mutex> lock(resultMutex);
          onResult(ctx);
        }
        (cancelled ? truncatedRuns : completed).fetch_add(1);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(failureMutex);
        failures.push_back({run, e.what()});
      } catch (...) {
        std::lock_guard<std::mutex> lock(failureMutex);
        failures.push_back({run, "unknown error"});
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();

  // Thread interleaving decides recording order; report deterministically.
  std::sort(failures.begin(), failures.end(),
            [](const BatchFailure& a, const BatchFailure& b) {
              return a.runIndex < b.runIndex;
            });
  return BatchSummary{completed.load(), truncatedRuns.load(),
                      skippedRuns.load(), std::move(failures)};
}

}  // namespace pushpart
