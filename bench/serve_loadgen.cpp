// E12 — serving-layer load generator: the plan oracle under concurrent,
// skewed traffic.
//
// The ROADMAP's north star is a system that answers "which shape should
// these processors use?" at production request rates. This harness drives
// src/serve's Oracle from many threads with a Zipf-skewed key popularity
// (a hot set dominates, a long tail forces cold solves and evictions),
// mixing tier-A (ranked candidates) and tier-B (DFA-search-backed)
// requests, then reports QPS, cache hit rate and per-tier latency
// percentiles. A calibration pass measures one uncached tier-B solve at
// --cold-n so the report can state the headline ratio: how much faster a
// hot-key cache hit is than recomputing the search-backed answer.
//
// Self-check (RESULT line): every request answered, the hot set actually
// hit, and hot-key hits at least 100x faster than the tier-B cold solve.
// Machine-readable output: --json=BENCH_serve.json (written by default): the
// run's shape and counts, QPS and hit rate, four latency histograms
// ({count, p50_s, p95_s, p99_s} for end_to_end, hit_latency, tier_a_solve,
// tier_b_solve), the cold calibration solve and the hot-vs-cold speedup. A
// report that cannot be written is reported ("cannot write <path>") and
// exits 1.
//
//   ./serve_loadgen [--threads=8] [--requests=12000] [--keys=48] [--skew=1.0]
//                   [--n=120] [--runs=3] [--tierb-every=4] [--capacity=4096]
//                   [--cold-n=1000] [--cold-runs=1] [--seed=1]
//                   [--bandwidth-mbs=1000] [--flops=1e9]
//                   [--json=BENCH_serve.json]
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/oracle.hpp"
#include "support/flags.hpp"
#include "support/histogram.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

using namespace pushpart;

namespace {

/// Builds the deterministic key universe: ratios cycle through the paper's
/// eleven, n through three sizes, algorithms through all five; every
/// `tierbEvery`-th key asks for the search-backed tier.
std::vector<PlanRequest> buildUniverse(int keys, int baseN, int runs,
                                       int tierbEvery) {
  const auto& ratios = paperRatios();
  const std::array<int, 3> ns = {baseN / 2, (3 * baseN) / 4, baseN};
  std::vector<PlanRequest> universe;
  universe.reserve(static_cast<std::size_t>(keys));
  for (int i = 0; i < keys; ++i) {
    PlanRequest req;
    req.ratio = ratios[static_cast<std::size_t>(i) % ratios.size()];
    req.n = std::max(12, ns[static_cast<std::size_t>(i / 11) % ns.size()]);
    req.algo = kAllAlgos[static_cast<std::size_t>(i) % kAllAlgos.size()];
    if (tierbEvery > 0 && i % tierbEvery == tierbEvery - 1) {
      req.tier = PlanTier::kSearch;
      req.searchRuns = runs;
    }
    universe.push_back(req);
  }
  return universe;
}

/// Zipf CDF over ranks 1..K with exponent `skew`: key 0 is the hottest.
std::vector<double> zipfCdf(std::size_t keys, double skew) {
  std::vector<double> cdf(keys);
  double total = 0.0;
  for (std::size_t k = 0; k < keys; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), skew);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int threads =
      std::max(1, static_cast<int>(flags.i64("threads", 8)));
  const std::int64_t requests = flags.i64("requests", 12000);
  const int keys = std::max(1, static_cast<int>(flags.i64("keys", 48)));
  const double skew = flags.f64("skew", 1.0);
  const int baseN = static_cast<int>(flags.i64("n", 120));
  const int runs = std::max(1, static_cast<int>(flags.i64("runs", 3)));
  const int tierbEvery = static_cast<int>(flags.i64("tierb-every", 4));
  const int coldN = static_cast<int>(flags.i64("cold-n", 1000));
  const int coldRuns = std::max(1, static_cast<int>(flags.i64("cold-runs", 1)));
  const auto seed = static_cast<std::uint64_t>(flags.i64("seed", 1));
  const std::string jsonPath = flags.str("json", "BENCH_serve.json");

  OracleOptions options;
  options.machine.sendElementSeconds =
      8.0 / (flags.f64("bandwidth-mbs", 1000.0) * 1e6);
  options.machine.baseFlopSeconds = 1.0 / flags.f64("flops", 1e9);
  options.cacheCapacity =
      static_cast<std::size_t>(flags.i64("capacity", 4096));
  Oracle oracle(options);

  const std::vector<PlanRequest> universe =
      buildUniverse(keys, baseN, runs, tierbEvery);
  const std::vector<double> cdf = zipfCdf(universe.size(), skew);

  std::cout << "E12 (serving): " << requests << " requests, " << threads
            << " threads, " << keys << " keys (Zipf skew " << skew
            << "), tier-B budget " << runs << " walks\n\n";

  // --- Load phase ---------------------------------------------------------
  std::atomic<std::int64_t> answered{0};
  std::atomic<std::int64_t> failed{0};
  LatencyHistogram endToEnd;
  Stopwatch wall;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  const Rng master(seed);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t]() {
      Rng rng = master.split(static_cast<std::uint64_t>(t));
      const std::int64_t share =
          requests / threads + (t < requests % threads ? 1 : 0);
      for (std::int64_t i = 0; i < share; ++i) {
        const double u = rng.real();
        const std::size_t idx = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        try {
          const PlanResponse r =
              oracle.plan(universe[std::min(idx, universe.size() - 1)]);
          endToEnd.record(r.latencySeconds);
          answered.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  const double wallSeconds = wall.seconds();
  const double qps = static_cast<double>(answered.load()) / wallSeconds;

  // --- Calibration: one uncached tier-B solve -----------------------------
  PlanRequest cold;
  cold.n = coldN;
  cold.ratio = Ratio{5, 2, 1};
  cold.algo = Algo::kSCB;
  cold.tier = PlanTier::kSearch;
  cold.searchRuns = coldRuns;
  cold.searchSeed = seed;
  const PlanAnswer coldAnswer = oracle.solveUncached(cold);

  // --- Report -------------------------------------------------------------
  const OracleStats stats = oracle.stats();
  const double hitRate = answered.load() > 0
                             ? static_cast<double>(stats.cache.hits) /
                                   static_cast<double>(answered.load())
                             : 0.0;
  const double hotP50 = stats.hitLatency.p50;
  const double speedup =
      hotP50 > 0.0 ? coldAnswer.solveSeconds / hotP50 : 0.0;

  Table table({"metric", "value"});
  table.addRow("answered", {static_cast<double>(answered.load())});
  table.addRow("QPS", {qps});
  table.addRow("hit rate", {hitRate});
  table.addRow("hits", {static_cast<double>(stats.cache.hits)});
  table.addRow("misses", {static_cast<double>(stats.cache.misses)});
  table.addRow("coalesced", {static_cast<double>(stats.cache.coalesced)});
  table.addRow("evictions", {static_cast<double>(stats.cache.evictions)});
  table.addRow("hit p50 (us)", {stats.hitLatency.p50 * 1e6});
  table.addRow("hit p99 (us)", {stats.hitLatency.p99 * 1e6});
  table.addRow("tier-A solve p50 (us)", {stats.tierASolves.p50 * 1e6});
  table.addRow("tier-B solve p50 (us)", {stats.tierBSolves.p50 * 1e6});
  table.addRow("cold tier-B solve (s)", {coldAnswer.solveSeconds});
  table.addRow("hot-hit speedup vs cold B", {speedup});
  table.print(std::cout);

  // --- BENCH_serve.json ---------------------------------------------------
  JsonWriter json(jsonPath);
  json.field("bench", "serve_loadgen").field("threads", threads)
      .field("requests", requests).field("answered", answered.load())
      .field("failed", failed.load()).field("keys", keys).field("skew", skew)
      .field("wall_seconds", wallSeconds).field("qps", qps)
      .field("hits", stats.cache.hits).field("misses", stats.cache.misses)
      .field("coalesced", stats.cache.coalesced)
      .field("evictions", stats.cache.evictions).field("hit_rate", hitRate);
  const std::pair<const char*, LatencyHistogram::Snapshot> histograms[] = {
      {"end_to_end", endToEnd.snapshot()},
      {"hit_latency", stats.hitLatency},
      {"tier_a_solve", stats.tierASolves},
      {"tier_b_solve", stats.tierBSolves}};
  for (const auto& [name, h] : histograms)
    json.beginObject(name).field("count", h.count).field("p50_s", h.p50)
        .field("p95_s", h.p95).field("p99_s", h.p99).end();
  json.beginObject("cold").field("n", coldN).field("runs", coldRuns)
      .field("solve_seconds", coldAnswer.solveSeconds).end();
  json.field("hot_hit_p50_seconds", hotP50)
      .field("speedup_hot_vs_cold_b", speedup);
  if (!json.close()) return 1;
  std::cout << "\nreport written to " << jsonPath << "\n";

  const bool ok = failed.load() == 0 && answered.load() == requests &&
                  stats.cache.hits > 0 && speedup >= 100.0;
  std::cout << (ok ? "\nRESULT: served every request; hot-key hits >= 100x "
                     "faster than the tier-B cold path.\n"
                   : "\nRESULT: serving targets missed.\n");
  return ok ? 0 : 1;
}
