// E6 — extension of paper §X: how the star topology shifts the optimum.
//
// The paper notes that a star network (hub relays all spoke↔spoke traffic)
// "will affect which partition shape is the optimal" but leaves the analysis
// open. This harness quantifies it: for each ratio it compares every
// candidate's SCB/PCB communication time under fully-connected vs star
// routing, on both the analytic model and the discrete-event simulator.
// Expected shape: candidates where R and S exchange data (Traditional,
// Block) pay a relay penalty, while the Square-Corner — whose R and S share
// no rows or columns — is topology-immune, extending its winning region.
//
//   ./topology_star [--n=120] [--bandwidth-mbs=1000] [--csv=path]
#include <cstdio>
#include <iostream>

#include "model/optimal.hpp"
#include "sim/mmm_sim.hpp"
#include "support/csv.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace pushpart;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int n = static_cast<int>(flags.i64("n", 120));
  Machine machine;
  machine.sendElementSeconds = 8.0 / (flags.f64("bandwidth-mbs", 1000.0) * 1e6);

  CsvWriter csv;
  if (flags.has("csv"))
    csv = CsvWriter(flags.str("csv", ""),
                    {"ratio", "shape", "fullCommSeconds", "starCommSeconds",
                     "penalty"});

  std::cout << "E6 (extends paper Sec. X): star-topology relay penalty per "
               "candidate, SCB comm seconds, n="
            << n << ", hub = P\n\n";

  Table table({"ratio", "shape", "full (s)", "star (s)", "penalty"});
  bool scImmune = true;
  bool someonePays = false;
  for (const Ratio& ratio : {Ratio{2, 1, 1}, Ratio{5, 1, 1}, Ratio{10, 1, 1},
                             Ratio{5, 2, 1}, Ratio{5, 4, 1}}) {
    machine.ratio = ratio;
    for (CandidateShape shape : kAllCandidates) {
      if (!candidateFeasible(shape, n, ratio)) continue;
      const Partition q = makeCandidate(shape, n, ratio);
      SimOptions opts;
      opts.machine = machine;
      opts.topology = Topology::kFullyConnected;
      const double full = simulateMMM(Algo::kSCB, q, opts).commSeconds;
      opts.topology = Topology::kStar;
      const double star = simulateMMM(Algo::kSCB, q, opts).commSeconds;
      const double penalty = full > 0 ? star / full : 1.0;
      char pen[32];
      std::snprintf(pen, sizeof(pen), "x%.3f", penalty);
      table.addRow({ratio.str(), candidateName(shape), formatNumber(full),
                    formatNumber(star), pen});
      csv.row({ratio.str(), candidateName(shape), formatNumber(full),
               formatNumber(star), formatNumber(penalty)});
      if (shape == CandidateShape::kSquareCorner && penalty > 1.0 + 1e-9)
        scImmune = false;
      if (penalty > 1.001) someonePays = true;
    }
  }
  table.print(std::cout);
  if (!csv.close()) return 1;

  std::cout << "\nWinner under star vs fully-connected (SCB):\n";
  for (const Ratio& ratio : {Ratio{5, 1, 1}, Ratio{10, 1, 1}}) {
    machine.ratio = ratio;
    const auto full = selectOptimal(Algo::kSCB, n, machine,
                                    Topology::kFullyConnected);
    const auto star = selectOptimal(Algo::kSCB, n, machine, Topology::kStar);
    std::printf("  %-8s full: %-22s star: %s\n", ratio.str().c_str(),
                candidateName(full.shape), candidateName(star.shape));
  }

  const bool ok = scImmune && someonePays;
  std::cout << (ok ? "\nRESULT: Square-Corner is topology-immune while "
                     "R-S-coupled shapes pay the relay — the star favours "
                     "corner shapes, as the paper anticipated.\n"
                   : "\nRESULT: unexpected topology behaviour.\n");
  return ok ? 0 : 1;
}
