// End-to-end: simulate and actually execute a partitioned MMM.
//
//   ./simulate_cluster [--n=96] [--ratio=5:2:1] [--shape=Block-Rectangle]
//                      [--alpha-us=50] [--bandwidth-mbs=1000]
//
// First runs every algorithm on the discrete-event cluster simulator
// (message-level Hockney network, star vs fully-connected), then executes a
// real threaded kij multiplication with duty-cycle throttled workers and
// verifies it against the serial reference — the library's two substitutes
// for the paper's 3-node Open-MPI/ATLAS testbed.
#include <cstdio>
#include <iostream>

#include "exec/kij_executor.hpp"
#include "shapes/candidates.hpp"
#include "sim/mmm_sim.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace pushpart;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int n = static_cast<int>(flags.i64("n", 96));
  const Ratio ratio = Ratio::parse(flags.str("ratio", "5:2:1"));
  const CandidateShape shape =
      candidateFromName(flags.str("shape", "Block-Rectangle"));

  if (!candidateFeasible(shape, n, ratio)) {
    std::cerr << candidateName(shape) << " is infeasible for ratio "
              << ratio.str() << "\n";
    return 1;
  }
  const Partition q = makeCandidate(shape, n, ratio);

  SimOptions sim;
  sim.machine.ratio = ratio;
  sim.machine.alphaSeconds = flags.f64("alpha-us", 50.0) * 1e-6;
  sim.machine.sendElementSeconds =
      8.0 / (flags.f64("bandwidth-mbs", 1000.0) * 1e6);

  std::cout << "== Discrete-event simulation: " << candidateName(shape)
            << ", n=" << n << ", ratio " << ratio.str() << " ==\n\n";
  Table pretty({"algo", "topology", "comm (s)", "exec (s)", "messages"});
  for (Algo algo : kAllAlgos) {
    for (Topology topo : {Topology::kFullyConnected, Topology::kStar}) {
      sim.topology = topo;
      const SimResult r = simulateMMM(algo, q, sim);
      char comm[32], exec[32], msgs[32];
      std::snprintf(comm, sizeof(comm), "%.6f", r.commSeconds);
      std::snprintf(exec, sizeof(exec), "%.6f", r.execSeconds);
      std::snprintf(msgs, sizeof(msgs), "%lld",
                    static_cast<long long>(r.network.messagesSent));
      pretty.addRow({algoName(algo), topologyName(topo), comm, exec, msgs});
    }
  }
  pretty.print(std::cout);

  std::cout << "\n== Real threaded execution (throttled workers, verified) "
               "==\n\n";
  ExecOptions exec;
  exec.machine = sim.machine;
  exec.verify = true;
  const ExecResult run = runParallelMMM(Algo::kPCB, q, exec);
  std::printf("wall time        %.4f s\n", run.wallSeconds);
  std::printf("emulated comm    %.6f s (%lld elements)\n", run.commSeconds,
              static_cast<long long>(run.commElements));
  for (Proc x : kAllProcs) {
    std::printf("worker %c busy   %.4f s (speed %.0f)\n", procName(x),
                run.computeSeconds[procSlot(x)], ratio.speed(x));
  }
  // The executor's product is bit-identical to the serial reference, so
  // only an exact match verifies.
  const bool verified = run.verified && run.maxAbsError == 0.0;
  std::printf("max |error| vs serial reference: %.3e — %s\n", run.maxAbsError,
              verified ? "VERIFIED" : "MISMATCH");
  return verified ? 0 : 2;
}
