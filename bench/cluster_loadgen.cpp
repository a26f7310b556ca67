// E15 — cluster self-healing: a replicated oracle cluster through a seeded
// kill-and-rejoin drill, measuring availability, tail latency, and cache
// survival.
//
// Three phases on one fake clock (every run with the same flags replays the
// same drill):
//
//   * warm phase: a fixed key universe is solved and replicated across each
//     key's owners; a residency census then records which keys reached the
//     full replication factor.
//   * death phase: one node is killed (process crash — its cache is gone).
//     Client threads keep issuing the same keys while the failure detector
//     walks kill -> suspect -> confirmed-down; the router serves every key
//     from its surviving replica. A census taken while the node is dead
//     proves no replicated entry became unanswerable.
//   * recovery phase: the node rejoins cold, is rebalanced from live peers
//     (snapshot-format segments, checksum-verified), and a final census
//     proves every key is back at the replication factor.
//
// Self-check (RESULT line): >= 99% of all requests answered (not
// cluster-shed), zero replicated entries lost while the node was dead, the
// replication factor restored after rejoin, and the recovery markers
// present in the event log. Machine-readable output:
// --json=BENCH_cluster.json (written by default): the drill's settings, the
// availability and survival numbers, then the router, replication,
// rebalance and detector counters, one flat object. A report that cannot be
// written is reported ("cannot write <path>") and exits 1.
//
//   ./cluster_loadgen [--nodes=3] [--replication=2] [--keys=48]
//                     [--warm-requests=300] [--death-requests=400]
//                     [--post-requests=200] [--threads=4] [--kill-node=1]
//                     [--kill-at=1.0] [--rejoin-at=2.0] [--seed=1]
//                     [--heartbeat-drop=0] [--json=BENCH_cluster.json]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "support/flags.hpp"
#include "support/histogram.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

using namespace pushpart;

namespace {

/// Deterministic tier-A key universe: distinct matrix sizes over one
/// machine, every answer full fidelity (and therefore replicated).
PlanRequest keyRequest(std::int64_t slot) {
  PlanRequest req;
  req.n = 100 + 3 * static_cast<int>(slot);
  req.ratio = Ratio{5, 2, 1};
  req.algo = Algo::kSCB;
  return req;
}

struct PhaseResult {
  std::int64_t issued = 0;
  std::int64_t answered = 0;
  LatencyHistogram::Snapshot latency;
};

/// Issues `requests` over [clock, clock + stepsSeconds * steps), ticking the
/// cluster once per step and splitting each step's quota across `threads`
/// concurrent clients. The clock only moves between steps, so the drill's
/// fault windows land on exact, replayable instants.
PhaseResult drivePhase(OracleCluster& cluster, FakeClock& clock,
                       std::int64_t keys, std::int64_t requests, int steps,
                       double stepSeconds, int threads,
                       std::int64_t firstSlot) {
  PhaseResult result;
  std::atomic<std::int64_t> answered{0};
  LatencyHistogram latency;
  std::int64_t issued = 0;
  for (int step = 0; step < steps; ++step) {
    cluster.tick();
    const std::int64_t due = requests * (step + 1) / steps;
    const std::int64_t quota = due - issued;
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      const std::int64_t from = issued + quota * t / threads;
      const std::int64_t to = issued + quota * (t + 1) / threads;
      clients.emplace_back([&, from, to]() {
        for (std::int64_t i = from; i < to; ++i) {
          const ClusterResponse r =
              cluster.plan(keyRequest((firstSlot + i) % keys));
          if (!r.clusterShed) {
            answered.fetch_add(1, std::memory_order_relaxed);
            latency.record(r.response.latencySeconds);
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    issued = due;
    clock.advance(stepSeconds);
  }
  result.issued = issued;
  result.answered = answered.load();
  result.latency = latency.snapshot();
  return result;
}

/// Keys (of the first `keys` universe slots) whose resident copy count is at
/// least `atLeast` in the census.
std::int64_t keysWithResidency(
    const std::unordered_map<std::string, int>& census, std::int64_t keys,
    int atLeast) {
  std::int64_t have = 0;
  for (std::int64_t slot = 0; slot < keys; ++slot) {
    const CanonicalKey key = canonicalize(keyRequest(slot));
    const auto it = census.find(key.text);
    if (it != census.end() && it->second >= atLeast) ++have;
  }
  return have;
}

bool eventLogged(const std::vector<ClusterEvent>& events,
                 const std::string& needle) {
  for (const ClusterEvent& event : events)
    if (event.what.find(needle) != std::string::npos) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int nodes = std::max(2, static_cast<int>(flags.i64("nodes", 3)));
  const int replication =
      std::max(2, static_cast<int>(flags.i64("replication", 2)));
  const std::int64_t keys = std::max<std::int64_t>(1, flags.i64("keys", 48));
  const std::int64_t warmRequests =
      std::max<std::int64_t>(keys, flags.i64("warm-requests", 300));
  const std::int64_t deathRequests =
      std::max<std::int64_t>(1, flags.i64("death-requests", 400));
  const std::int64_t postRequests =
      std::max<std::int64_t>(1, flags.i64("post-requests", 200));
  const int threads = std::max(1, static_cast<int>(flags.i64("threads", 4)));
  const int killNode = static_cast<int>(flags.i64("kill-node", 1));
  const double killAt = flags.f64("kill-at", 1.0);
  const double rejoinAt = flags.f64("rejoin-at", 2.0);
  const std::string jsonPath = flags.str("json", "BENCH_cluster.json");

  ClusterOptions options;
  options.nodes = nodes;
  options.replication = std::min(replication, nodes);
  options.faults.seed = static_cast<std::uint64_t>(flags.i64("seed", 1));
  options.faults.heartbeatDropProbability = flags.f64("heartbeat-drop", 0.0);
  options.faults.kills.push_back(NodeKill{killNode, killAt, rejoinAt});

  FakeClock clock;
  options.clock = &clock;
  OracleCluster cluster(options);

  const double step = options.heartbeatIntervalSeconds;
  const auto stepsFor = [&](double seconds) {
    return std::max(1, static_cast<int>(seconds / step));
  };

  std::cout << "E15 (cluster): " << nodes << " nodes, replication "
            << options.replication << ", node " << killNode << " killed at "
            << killAt << "s, rejoins at " << rejoinAt << "s; " << threads
            << " client threads over " << keys << " keys\n\n";

  // --- Warm phase ---------------------------------------------------------
  // Ends one step shy of killAt so the replication census is taken strictly
  // before the kill instant.
  const PhaseResult warm =
      drivePhase(cluster, clock, keys, warmRequests,
                 std::max(1, stepsFor(killAt) - 1), step, threads, 0);
  const std::int64_t replicated = keysWithResidency(
      cluster.replicaCounts(), keys, options.replication);

  // --- Death phase --------------------------------------------------------
  // Crosses the kill instant and runs to rejoinAt; the census at the end of
  // the phase (the dead node's state still gone) is the survival check.
  const PhaseResult death =
      drivePhase(cluster, clock, keys, deathRequests,
                 stepsFor(rejoinAt - killAt) + 1, step, threads, warm.issued);
  const std::int64_t survivors =
      keysWithResidency(cluster.replicaCounts(), keys, 1);
  const std::int64_t lost = replicated - std::min(replicated, survivors);

  // --- Recovery phase -----------------------------------------------------
  // The clock is now at rejoinAt: the next tick restarts the node cold,
  // heartbeats resume, and recovery (rebalance + hints) runs.
  const PhaseResult post = drivePhase(cluster, clock, keys, postRequests,
                                      stepsFor(0.5), step, threads,
                                      warm.issued + death.issued);
  const std::int64_t restored = keysWithResidency(
      cluster.replicaCounts(), keys, options.replication);

  const ClusterStats stats = cluster.stats();
  const std::vector<ClusterEvent> events = cluster.events();
  for (const ClusterEvent& event : events)
    std::printf("  t=%.3fs %s\n", event.at, event.what.c_str());
  std::printf("\n");

  const std::int64_t issued = warm.issued + death.issued + post.issued;
  const std::int64_t answered = warm.answered + death.answered + post.answered;
  const double availability =
      issued > 0 ? static_cast<double>(answered) / static_cast<double>(issued)
                 : 1.0;

  Table table({"metric", "value"});
  table.addRow("requests", {static_cast<double>(issued)});
  table.addRow("answered", {static_cast<double>(answered)});
  table.addRow("availability", {availability});
  table.addRow("death-phase p99 (us)", {death.latency.p99 * 1e6});
  table.addRow("keys replicated pre-kill", {static_cast<double>(replicated)});
  table.addRow("keys surviving mid-death", {static_cast<double>(survivors)});
  table.addRow("entries lost", {static_cast<double>(lost)});
  table.addRow("keys at factor post-rejoin", {static_cast<double>(restored)});
  table.addRow("replica serves", {static_cast<double>(stats.replicaServes)});
  table.addRow("replica cache hits", {static_cast<double>(stats.replicaHits)});
  table.addRow("rebalance entries",
               {static_cast<double>(stats.rebalance.entriesStreamed)});
  table.addRow("hints delivered", {static_cast<double>(stats.hintsDelivered)});
  table.print(std::cout);

  // --- BENCH_cluster.json -------------------------------------------------
  JsonWriter json(jsonPath);
  json.field("bench", "cluster_loadgen").field("nodes", nodes)
      .field("replication", options.replication)
      .field("seed", options.faults.seed).field("kill_node", killNode)
      .field("kill_at_s", killAt).field("rejoin_at_s", rejoinAt)
      .field("requests", issued).field("answered", answered)
      .field("availability", availability)
      .field("death_p99_s", death.latency.p99).field("keys", keys)
      .field("keys_replicated", replicated)
      .field("keys_surviving", survivors).field("entries_lost", lost)
      .field("keys_restored", restored)
      .field("cluster_sheds", stats.clusterSheds)
      .field("primary_serves", stats.primaryServes)
      .field("replica_serves", stats.replicaServes)
      .field("replica_hits", stats.replicaHits)
      .field("retries", stats.retries)
      .field("replicas_written", stats.replicasWritten)
      .field("hints_stored", stats.hintsStored)
      .field("hints_delivered", stats.hintsDelivered)
      .field("rebalances", stats.rebalance.rebalances)
      .field("rebalance_segments", stats.rebalance.segmentsStreamed)
      .field("rebalance_entries", stats.rebalance.entriesStreamed)
      .field("detector_confirmations", stats.detector.confirmations)
      .field("detector_recoveries", stats.detector.recoveries);
  if (!json.close()) return 1;
  std::cout << "report written to " << jsonPath << "\n";

  const bool availabilityOk = availability >= 0.99;
  const bool survivalOk = lost == 0 && replicated == keys;
  const bool restoredOk = restored == keys;
  const bool markersOk = eventLogged(events, "killed") &&
                         eventLogged(events, "confirmed down") &&
                         eventLogged(events, "rejoining") &&
                         eventLogged(events, "rebalance") &&
                         eventLogged(events, "recovered");
  const bool ok = availabilityOk && survivalOk && restoredOk && markersOk;
  std::cout << (ok ? "\nRESULT: cluster survived the kill-and-rejoin drill "
                     "with no replicated entry lost.\n"
                   : "\nRESULT: cluster drill targets missed.\n");
  if (!availabilityOk)
    std::printf("  availability bar failed: %.4g < 0.99\n", availability);
  if (!survivalOk)
    std::printf("  survival bar failed: %lld/%lld keys replicated, %lld "
                "lost\n",
                static_cast<long long>(replicated),
                static_cast<long long>(keys), static_cast<long long>(lost));
  if (!restoredOk)
    std::printf("  rebalance bar failed: %lld/%lld keys back at factor %d\n",
                static_cast<long long>(restored),
                static_cast<long long>(keys), options.replication);
  if (!markersOk)
    std::printf("  recovery markers missing from the event log\n");
  return ok ? 0 : 1;
}
