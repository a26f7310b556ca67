// E4 — paper Fig. 14: SCB communication time, Square-Corner vs
// Block-Rectangle, as heterogeneity grows.
//
// Paper setting: N = 5000 doubles, 1000 MB/s network, fully-connected
// topology, R_r = S_r = 1, P_r sweeping upward. The Square-Corner's volume
// of communication falls with heterogeneity and eventually overtakes (drops
// below) the Block-Rectangle's. This harness reproduces the series three
// ways — closed form, grid-measured VoC, and the discrete-event simulator —
// and reports the crossover. Reproduction criteria: BR is flat-ish and SC
// decreasing; SC wins for large P_r; all three methods agree.
//
//   ./fig14_commtime [--n=5000] [--grid-n=500] [--bandwidth-mbs=1000]
//                    [--pmax=25] [--csv=path]
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "model/closed_form.hpp"
#include "model/models.hpp"
#include "sim/mmm_sim.hpp"
#include "support/csv.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace pushpart;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int n = static_cast<int>(flags.i64("n", 5000));          // closed form
  const int gridN = static_cast<int>(flags.i64("grid-n", 500));  // grid + sim
  const double tsend = 8.0 / (flags.f64("bandwidth-mbs", 1000.0) * 1e6);
  const int pmax = static_cast<int>(flags.i64("pmax", 25));

  CsvWriter csv;
  if (flags.has("csv"))
    csv = CsvWriter(flags.str("csv", ""),
                    {"Pr", "scClosedForm", "brClosedForm", "scGrid", "brGrid",
                     "scSim", "brSim"});

  std::cout << "E4 (paper Fig. 14): SCB communication seconds, N=" << n
            << " (grid/sim at n=" << gridN << "), 1000 MB/s, R_r=S_r=1\n\n";

  Table table({"P_r", "SC closed (s)", "BR closed (s)", "SC grid (s)",
               "BR grid (s)", "SC sim (s)", "BR sim (s)"});

  const double scale =
      static_cast<double>(n) * n / (static_cast<double>(gridN) * gridN);
  double crossover = -1;
  bool brEverWins = false, scEventuallyWins = false;
  for (int p = 2; p <= pmax; ++p) {
    const Ratio ratio{static_cast<double>(p), 1, 1};
    const double scClosed =
        closedFormScbCommSeconds(CandidateShape::kSquareCorner, ratio, n, tsend);
    const double brClosed = closedFormScbCommSeconds(
        CandidateShape::kBlockRectangle, ratio, n, tsend);

    double scGrid = std::numeric_limits<double>::infinity();
    double scSim = std::numeric_limits<double>::infinity();
    Machine machine;
    machine.ratio = ratio;
    machine.sendElementSeconds = tsend;
    SimOptions simOpts;
    simOpts.machine = machine;
    if (candidateFeasible(CandidateShape::kSquareCorner, gridN, ratio)) {
      const auto q = makeCandidate(CandidateShape::kSquareCorner, gridN, ratio);
      scGrid = evalModel(Algo::kSCB, q, machine).commSeconds * scale;
      scSim = simulateMMM(Algo::kSCB, q, simOpts).commSeconds * scale;
    }
    const auto br = makeCandidate(CandidateShape::kBlockRectangle, gridN, ratio);
    const double brGrid =
        evalModel(Algo::kSCB, br, machine).commSeconds * scale;
    const double brSim = simulateMMM(Algo::kSCB, br, simOpts).commSeconds * scale;

    if (std::isfinite(scClosed) && scClosed < brClosed && crossover < 0)
      crossover = p;
    if (!std::isfinite(scClosed) || scClosed >= brClosed) brEverWins = true;
    if (std::isfinite(scClosed) && scClosed < brClosed)
      scEventuallyWins = true;

    table.addRow(std::to_string(p),
                 {scClosed, brClosed, scGrid, brGrid, scSim, brSim});
    csv.row({static_cast<double>(p), scClosed, brClosed, scGrid, brGrid,
             scSim, brSim});
  }
  table.print(std::cout);
  if (!csv.close()) return 1;

  std::printf("\ncrossover: Square-Corner first beats Block-Rectangle at "
              "P_r = %.0f (closed form; paper reports the win at high "
              "heterogeneity)\n",
              crossover);
  const bool ok = brEverWins && scEventuallyWins && crossover > 2;
  std::cout << (ok ? "RESULT: matches paper Fig. 14 — SC overtakes BR as "
                     "heterogeneity increases.\n"
                   : "RESULT: MISMATCH with expected Fig. 14 shape.\n");
  return ok ? 0 : 1;
}
