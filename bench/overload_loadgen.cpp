// E14 — overload resilience: the plan oracle at 4x saturation with
// deadlines, admission control, and warm-restart snapshots.
//
// E12 (serve_loadgen) shows the happy path: a cache-friendly mix served at
// high QPS. This harness asks the opposite question — what happens when the
// offered load is a multiple of what the solver can sustain? The answer the
// serving layer promises (DESIGN.md §12) is "degrade, don't collapse":
//
//   * overload phase: `multiplier` x `max-concurrency` closed-loop client
//     threads issue cache-busting tier-B requests under a per-request
//     deadline. Admission bounds the in-flight solves and the waiting room;
//     everything else is shed immediately. Admitted requests finish near
//     their deadline — cancelled cooperatively mid-search and served
//     truncated or closed-form-only, each marked as such.
//   * warm-restart phase: a hot-key workload populates a second oracle, its
//     cache is snapshotted, and a cold oracle restored from the snapshot
//     replays the same trace. The restored hit rate must reach >= 90% of
//     the pre-restart hit rate within the first 1k requests.
//
// Self-check (RESULT line): shed rate < 100%, goodput > 0, p99 of accepted
// requests <= 2x the deadline, zero answers served past their deadline
// without a degrade/truncation mark, and the warm-restart hit-rate bar.
// Machine-readable output: --json=BENCH_overload.json (written by default):
// the overload phase's counts and rates, breaker and admission counters,
// the accepted-latency histogram ({count, p50_s, p95_s, p99_s}) and the
// warm_restart phase. A report that cannot be written is reported ("cannot
// write <path>") and exits 1.
//
//   ./overload_loadgen [--deadline-ms=50] [--max-concurrency=2]
//                      [--max-queue=4] [--multiplier=4]
//                      [--requests-per-thread=8] [--n=240] [--runs=64]
//                      [--hot-every=4] [--warm-keys=32]
//                      [--warm-requests=1000] [--seed=1]
//                      [--snapshot=overload_cache.snap]
//                      [--json=BENCH_overload.json]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/oracle.hpp"
#include "serve/snapshot.hpp"
#include "support/flags.hpp"
#include "support/histogram.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

using namespace pushpart;

namespace {

/// Deterministic per-slot request. Slot 0 is the shared hot key (tier A,
/// cached after its first solve); every other slot is a unique tier-B
/// request — distinct seeds defeat the cache so each one costs a solve.
PlanRequest overloadRequest(int slot, int n, int runs) {
  PlanRequest req;
  req.n = n;
  req.ratio = Ratio{5, 2, 1};
  req.algo = Algo::kSCB;
  if (slot == 0) return req;  // hot tier-A key
  req.tier = PlanTier::kSearch;
  req.searchRuns = runs;
  req.searchSeed = static_cast<std::uint64_t>(slot);
  return req;
}

/// Small mixed key set for the warm-restart phase: cheap tier-A keys plus a
/// sprinkle of low-budget tier-B keys, all solvable in microseconds to
/// milliseconds so the phase stays fast on one core.
std::vector<PlanRequest> warmUniverse(int keys) {
  const auto& ratios = paperRatios();
  std::vector<PlanRequest> universe;
  universe.reserve(static_cast<std::size_t>(keys));
  for (int i = 0; i < keys; ++i) {
    PlanRequest req;
    req.ratio = ratios[static_cast<std::size_t>(i) % ratios.size()];
    req.n = 24 + 12 * (i % 5);
    req.algo = kAllAlgos[static_cast<std::size_t>(i) % kAllAlgos.size()];
    if (i % 8 == 7) {
      req.tier = PlanTier::kSearch;
      req.searchRuns = 2;
    }
    universe.push_back(req);
  }
  return universe;
}

double hitRateOver(const Oracle& oracle, std::uint64_t hitsBefore,
                   int requests) {
  const std::uint64_t hits = oracle.stats().cache.hits - hitsBefore;
  return requests > 0 ? static_cast<double>(hits) / requests : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double deadlineSeconds = flags.f64("deadline-ms", 50.0) / 1e3;
  const int maxConcurrency =
      std::max(1, static_cast<int>(flags.i64("max-concurrency", 2)));
  const int maxQueue = std::max(0, static_cast<int>(flags.i64("max-queue", 4)));
  const int multiplier =
      std::max(1, static_cast<int>(flags.i64("multiplier", 4)));
  const int perThread =
      std::max(1, static_cast<int>(flags.i64("requests-per-thread", 8)));
  const int n = std::max(12, static_cast<int>(flags.i64("n", 240)));
  const int runs = std::max(1, static_cast<int>(flags.i64("runs", 64)));
  const int hotEvery = std::max(2, static_cast<int>(flags.i64("hot-every", 4)));
  const int warmKeys =
      std::max(1, static_cast<int>(flags.i64("warm-keys", 32)));
  const int warmRequests =
      std::max(1, static_cast<int>(flags.i64("warm-requests", 1000)));
  const std::string snapshotPath =
      flags.str("snapshot", "overload_cache.snap");
  const std::string jsonPath = flags.str("json", "BENCH_overload.json");

  const int clientThreads = multiplier * maxConcurrency;
  const int totalRequests = clientThreads * perThread;

  std::cout << "E14 (overload): " << clientThreads << " clients ("
            << multiplier << "x concurrency " << maxConcurrency << ", queue "
            << maxQueue << "), deadline " << deadlineSeconds * 1e3
            << " ms, tier-B budget " << runs << " walks at n=" << n << "\n\n";

  // --- Overload phase -----------------------------------------------------
  OracleOptions options;
  options.admission.maxConcurrency = maxConcurrency;
  options.admission.maxQueue = maxQueue;
  options.cancelCheckEvery = 256;  // poll often: deadlines are tens of ms
  Oracle oracle(options);

  std::atomic<std::int64_t> accepted{0};
  std::atomic<std::int64_t> shed{0};
  std::atomic<std::int64_t> degraded{0};
  std::atomic<std::int64_t> truncated{0};
  std::atomic<std::int64_t> withinDeadline{0};
  std::atomic<std::int64_t> within2x{0};
  std::atomic<std::int64_t> lateUnmarked{0};
  std::atomic<std::int64_t> failed{0};
  LatencyHistogram acceptedLatency;

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clientThreads));
  for (int t = 0; t < clientThreads; ++t) {
    pool.emplace_back([&, t]() {
      for (int i = 0; i < perThread; ++i) {
        // Every hotEvery-th request re-asks the shared hot key; the rest
        // are unique cold tier-B keys that each demand a fresh solve.
        const int slot =
            (i % hotEvery == hotEvery - 1) ? 0 : 1 + t * perThread + i;
        PlanCallOptions call;
        call.deadline = Deadline::after(deadlineSeconds);
        try {
          const PlanResponse r = oracle.plan(overloadRequest(slot, n, runs), call);
          if (r.shed) {
            shed.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          accepted.fetch_add(1, std::memory_order_relaxed);
          acceptedLatency.record(r.latencySeconds);
          if (!r.answer.fullFidelity())
            degraded.fetch_add(1, std::memory_order_relaxed);
          if (r.answer.truncated)
            truncated.fetch_add(1, std::memory_order_relaxed);
          if (r.latencySeconds <= deadlineSeconds)
            withinDeadline.fetch_add(1, std::memory_order_relaxed);
          if (r.latencySeconds <= 2.0 * deadlineSeconds)
            within2x.fetch_add(1, std::memory_order_relaxed);
          // The contract under test: an answer that came back after its
          // deadline must carry a degrade/truncation mark.
          if (r.deadlineExceeded && r.answer.fullFidelity())
            lateUnmarked.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  const OracleStats overloadStats = oracle.stats();
  const auto latency = acceptedLatency.snapshot();
  const double shedRate =
      static_cast<double>(shed.load()) / totalRequests;
  // Goodput: accepted answers that were still useful — delivered within the
  // 2x-deadline window the acceptance bar allows for p99.
  const std::int64_t goodput = within2x.load();

  Table table({"metric", "value"});
  table.addRow("offered", {static_cast<double>(totalRequests)});
  table.addRow("accepted", {static_cast<double>(accepted.load())});
  table.addRow("shed", {static_cast<double>(shed.load())});
  table.addRow("shed rate", {shedRate});
  table.addRow("degraded", {static_cast<double>(degraded.load())});
  table.addRow("truncated", {static_cast<double>(truncated.load())});
  table.addRow("within deadline", {static_cast<double>(withinDeadline.load())});
  table.addRow("goodput (<= 2x deadline)", {static_cast<double>(goodput)});
  table.addRow("late unmarked", {static_cast<double>(lateUnmarked.load())});
  table.addRow("accepted p50 (ms)", {latency.p50 * 1e3});
  table.addRow("accepted p99 (ms)", {latency.p99 * 1e3});
  table.addRow("breaker trips",
               {static_cast<double>(overloadStats.breaker.trips)});
  table.print(std::cout);

  // --- Warm-restart phase -------------------------------------------------
  const std::vector<PlanRequest> universe = warmUniverse(warmKeys);
  const auto replay = [&universe](Oracle& o, int requests) {
    for (int i = 0; i < requests; ++i)
      o.plan(universe[static_cast<std::size_t>(i) % universe.size()]);
  };

  Oracle warmOracle(OracleOptions{});
  replay(warmOracle, warmRequests);  // populate
  const std::uint64_t preHits = warmOracle.stats().cache.hits;
  replay(warmOracle, warmRequests);  // steady state
  const double preRestartHitRate =
      hitRateOver(warmOracle, preHits, warmRequests);
  const std::size_t saved = warmOracle.saveSnapshot(snapshotPath);

  Oracle restored(OracleOptions{});
  const SnapshotLoadReport report = restored.tryLoadSnapshot(snapshotPath);
  std::remove(snapshotPath.c_str());
  replay(restored, warmRequests);
  const double warmHitRate = hitRateOver(restored, 0, warmRequests);
  const double warmRatio =
      preRestartHitRate > 0.0 ? warmHitRate / preRestartHitRate : 0.0;

  std::printf(
      "\nwarm restart: %zu entries snapshotted, %zu restored (%zu skipped); "
      "hit rate %.4g -> %.4g (%.3gx) over %d requests\n",
      saved, report.loaded, report.skipped, preRestartHitRate, warmHitRate,
      warmRatio, warmRequests);

  // --- BENCH_overload.json ------------------------------------------------
  JsonWriter json(jsonPath);
  json.field("bench", "overload_loadgen").field("deadline_s", deadlineSeconds)
      .field("max_concurrency", maxConcurrency).field("max_queue", maxQueue)
      .field("multiplier", multiplier).field("offered", totalRequests)
      .field("accepted", accepted.load()).field("shed", shed.load())
      .field("shed_rate", shedRate).field("degraded", degraded.load())
      .field("truncated", truncated.load())
      .field("within_deadline", withinDeadline.load())
      .field("goodput_2x", goodput).field("late_unmarked", lateUnmarked.load())
      .field("failed", failed.load())
      .field("breaker_trips", overloadStats.breaker.trips)
      .field("breaker_open_serves", overloadStats.breakerOpenServes)
      .field("admission_timeouts", overloadStats.admission.shedTimeout)
      .field("queue_full", overloadStats.admission.shedQueueFull);
  json.beginObject("accepted_latency").field("count", latency.count)
      .field("p50_s", latency.p50).field("p95_s", latency.p95)
      .field("p99_s", latency.p99).end();
  json.beginObject("warm_restart").field("snapshot_entries", saved)
      .field("restored", report.loaded).field("skipped", report.skipped)
      .field("pre_hit_rate", preRestartHitRate)
      .field("warm_hit_rate", warmHitRate).field("ratio", warmRatio)
      .field("requests", warmRequests).end();
  if (!json.close()) return 1;
  std::cout << "report written to " << jsonPath << "\n";

  const bool overloadOk =
      failed.load() == 0 && shedRate < 1.0 && goodput > 0 &&
      lateUnmarked.load() == 0 &&
      latency.p99 <= 2.0 * deadlineSeconds;
  const bool warmOk = warmRatio >= 0.9;
  const bool ok = overloadOk && warmOk;
  std::cout << (ok ? "\nRESULT: degraded gracefully at overload and "
                     "warm-restarted from the snapshot.\n"
                   : "\nRESULT: overload-resilience targets missed.\n");
  if (!overloadOk)
    std::printf("  overload bar failed: shedRate=%.3g goodput=%lld "
                "lateUnmarked=%lld p99=%.4gs (limit %.4gs)\n",
                shedRate, static_cast<long long>(goodput),
                static_cast<long long>(lateUnmarked.load()), latency.p99,
                2.0 * deadlineSeconds);
  if (!warmOk)
    std::printf("  warm-restart bar failed: ratio %.3g < 0.9\n", warmRatio);
  return ok ? 0 : 1;
}
