// E11 — robustness extension: the five algorithms under an imperfect cluster.
//
// The paper's testbed assumes three always-alive nodes and a lossless
// network. This harness measures how the SCB/PCB/SCO/PCO/PIO schedules
// degrade when neither holds, using the fault-injected simulator
// (sim/fault.hpp): first a sweep over message-drop probability (every loss
// costs an ack timeout, a jittered backoff and a retransmission), then a
// sweep over the instant one processor dies, after which the run fails over
// to the rebalanced two-survivor partition of plan/rebalance.hpp. Reported
// numbers are exec-time ratios against the fault-free baseline of the same
// algorithm, so the columns isolate the cost of the faults themselves.
//
//   ./fault_sweep [--n=96] [--ratio=5:2:1] [--shape=Square-Corner]
//                 [--bandwidth-mbs=1000] [--flops=1e9] [--alpha-us=10]
//                 [--chunks=4] [--timeout-us=10] [--seed=1]
//                 [--death-proc=R] [--csv=fault_sweep.csv]
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "shapes/candidates.hpp"
#include "sim/mmm_sim.hpp"
#include "support/csv.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace pushpart;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int n = static_cast<int>(flags.i64("n", 96));
  const Ratio ratio = Ratio::parse(flags.str("ratio", "5:2:1"));
  const CandidateShape shape =
      candidateFromName(flags.str("shape", "Square-Corner"));
  if (!candidateFeasible(shape, n, ratio)) {
    std::cerr << "infeasible shape for this ratio\n";
    return 1;
  }
  const Partition q = makeCandidate(shape, n, ratio);

  SimOptions base;
  base.machine.ratio = ratio;
  base.machine.sendElementSeconds =
      8.0 / (flags.f64("bandwidth-mbs", 1000.0) * 1e6);
  base.machine.baseFlopSeconds = 1.0 / flags.f64("flops", 1e9);
  base.machine.alphaSeconds = flags.f64("alpha-us", 10.0) * 1e-6;
  // More chunks -> more messages -> more drop draws per run.
  base.chunksPerPair = static_cast<int>(flags.i64("chunks", 4));
  // Ack timeout and backoff scaled to the microsecond-order transfers these
  // machines make; the RetryPolicy defaults target second-scale runs.
  base.retry.timeoutSeconds = flags.f64("timeout-us", 10.0) * 1e-6;
  base.retry.backoffSeconds = 1e-6;
  base.retry.backoffMaxSeconds = 1e-4;
  const auto seed = static_cast<std::uint64_t>(flags.i64("seed", 1));
  const std::string deadName = flags.str("death-proc", "R");
  const Proc dead = deadName == "S"   ? Proc::S
                    : deadName == "P" ? Proc::P
                                      : Proc::R;

  std::cout << "E11 (robustness): exec-time inflation vs fault intensity\n"
            << candidateName(shape) << ", n=" << n << ", ratio "
            << ratio.str() << ", ack timeout "
            << formatNumber(base.retry.timeoutSeconds * 1e6) << "us\n\n";

  CsvWriter csv =
      flags.has("csv")
          ? CsvWriter(flags.str("csv", ""),
                      {"sweep", "x", "algo", "baseline_s", "faulty_s",
                       "retries", "drops", "completed"})
          : CsvWriter();

  // --- Sweep 1: drop probability ----------------------------------------
  const std::vector<double> dropRates = {0.0, 0.01, 0.02, 0.05, 0.1, 0.2};
  std::vector<std::string> header{"drop p"};
  for (Algo a : kAllAlgos) header.push_back(algoName(a));
  Table dropTable(header);
  bool allCompleted = true;
  for (double p : dropRates) {
    std::vector<std::string> row{formatNumber(p)};
    for (Algo algo : kAllAlgos) {
      const double baseline = simulateMMM(algo, q, base).execSeconds;
      SimOptions opts = base;
      opts.faults.seed = seed;
      opts.faults.dropProbability = p;
      const SimResult r = simulateMMM(algo, q, opts);
      allCompleted = allCompleted && r.completed;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3fx%s", r.execSeconds / baseline,
                    r.completed ? "" : "!");
      row.push_back(buf);
      csv.row({"drop", formatNumber(p), algoName(algo),
                  std::to_string(baseline), std::to_string(r.execSeconds),
                  std::to_string(r.network.retriesSent),
                  std::to_string(r.network.dropsInjected),
                  r.completed ? "1" : "0"});
    }
    dropTable.addRow(row);
  }
  std::cout << "exec / fault-free baseline vs message-drop probability\n";
  dropTable.print(std::cout);

  // --- Sweep 2: processor death time ------------------------------------
  const std::vector<double> deathFracs = {0.1, 0.25, 0.5, 0.75, 0.9};
  std::vector<std::string> header2{"death at"};
  for (Algo a : kAllAlgos) header2.push_back(algoName(a));
  Table deathTable(header2);
  bool allRecovered = true;
  for (double frac : deathFracs) {
    std::vector<std::string> row{formatNumber(frac) + " exec"};
    for (Algo algo : kAllAlgos) {
      const double baseline = simulateMMM(algo, q, base).execSeconds;
      SimOptions opts = base;
      opts.faults.seed = seed;
      opts.faults.death = ProcDeath{dead, baseline * frac};
      const SimResult r = simulateMMM(algo, q, opts);
      allRecovered = allRecovered && r.completed &&
                     (!r.recovery.processorDied ||
                      r.recovery.failoverPlanVerified);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3fx%s", r.execSeconds / baseline,
                    r.completed ? "" : "!");
      row.push_back(buf);
      csv.row({"death", formatNumber(frac), algoName(algo),
                  std::to_string(baseline), std::to_string(r.execSeconds),
                  std::to_string(r.network.retriesSent),
                  std::to_string(r.network.dropsInjected),
                  r.completed ? "1" : "0"});
    }
    deathTable.addRow(row);
  }
  std::cout << "\nexec / fault-free baseline vs death time of proc "
            << procName(dead) << " (failover via rebalance)\n";
  deathTable.print(std::cout);
  if (!csv.close()) return 1;
  if (flags.has("csv"))
    std::cout << "\nrows written to " << flags.str("csv", "") << "\n";

  const bool ok = allCompleted && allRecovered;
  std::cout << (ok ? "\nRESULT: every run completed; every death recovered "
                     "through a verified failover schedule.\n"
                   : "\nRESULT: some runs failed to complete or recover.\n");
  return ok ? 0 : 1;
}
