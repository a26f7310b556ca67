// E3 — paper Fig. 13: SCB cost surface, Square-Corner vs Block-Rectangle.
//
// The paper plots the closed-form SCB communication cost of both shapes over
// R_r ∈ [1, 10] × P_r ∈ [1, 20] (S_r = 1) and shows the Square-Corner
// undercutting the Block-Rectangle at high heterogeneity, beyond its
// feasibility wall P_r = 2√R_r. This harness prints the same surface as a
// winner map plus the crossover front, and cross-checks each closed form
// against a grid-built partition. Reproduction criteria: (a) SC is
// infeasible left of the wall, (b) SC wins in the high-P_r / low-R_r corner,
// (c) crossover P_r grows with R_r.
//
//   ./fig13_surface [--n=200] [--pmax=20] [--rmax=10] [--csv=path]
//                   [--json=path]
//
// --json writes the same grid as a machine-diffable document: experiment,
// pmax, rmax, then one cell object per line ({pr, rr, sc, br, winner}, sc
// null where the Square-Corner is infeasible) and the crossover front
// ({rr, pr, wall} per R_r), with round-trip exact doubles, so the atlas
// builder's measured surface (`pushpart atlas build`) can be differenced
// against these closed forms point by point. A --csv or --json file that
// cannot be written is reported ("cannot write <path>") and exits 1.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>

#include "model/closed_form.hpp"
#include "support/csv.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"

using namespace pushpart;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int n = static_cast<int>(flags.i64("n", 200));
  const int pmax = static_cast<int>(flags.i64("pmax", 20));
  const int rmax = static_cast<int>(flags.i64("rmax", 10));

  CsvWriter csv;
  if (flags.has("csv"))
    csv = CsvWriter(flags.str("csv", ""),
                    {"Pr", "Rr", "squareCornerVoC", "blockRectangleVoC"});

  std::optional<JsonWriter> json;
  if (flags.has("json")) {
    json.emplace(flags.str("json", ""));
    json->field("experiment", "fig13_surface").field("pmax", pmax)
        .field("rmax", rmax).beginArray("cells");
  }

  std::cout << "E3 (paper Fig. 13): SCB cost, Square-Corner (SC) vs "
               "Block-Rectangle (BR), S_r = 1\n"
            << "cells: '#' SC infeasible (P_r <= 2*sqrt(R_r)), 'S' SC wins, "
               "'B' BR wins\n\n";

  std::printf("      R_r:");
  for (int r = 1; r <= rmax; ++r) std::printf("%3d", r);
  std::printf("\n");
  for (int p = pmax; p >= 1; --p) {
    std::printf("P_r %3d | ", p);
    for (int r = 1; r <= rmax; ++r) {
      if (p < r) {  // ratio invalid (P must be fastest)
        std::printf("  .");
        continue;
      }
      const Ratio ratio{static_cast<double>(p), static_cast<double>(r), 1};
      const double sc = closedFormVoC(CandidateShape::kSquareCorner, ratio);
      const double br = closedFormVoC(CandidateShape::kBlockRectangle, ratio);
      csv.row({static_cast<double>(p), static_cast<double>(r), sc, br});
      if (json)  // The SC-infeasible wall's infinite VoC is written null.
        json->beginObject().field("pr", p).field("rr", r).field("sc", sc)
            .field("br", br)
            .field("winner", std::isinf(sc) ? "infeasible"
                             : sc < br      ? "Square-Corner"
                                            : "Block-Rectangle")
            .end();
      if (std::isinf(sc)) {
        std::printf("  #");
      } else {
        std::printf("  %c", sc < br ? 'S' : 'B');
      }
    }
    std::printf("\n");
  }

  if (json) {
    json->end().beginArray("crossover");
    for (int r = 1; r <= rmax; ++r)
      json->beginObject()
          .field("rr", r)
          .field("pr", squareCornerCrossover(r, 1))
          .field("wall", 2.0 * std::sqrt(static_cast<double>(r)))
          .end();
  }
  // Close both before failing, so neither file is left unterminated.
  const bool csvOk = csv.close();
  const bool jsonOk = !json || json->close();
  if (!csvOk || !jsonOk) return 1;
  if (json)
    std::cout << "json surface written to " << flags.str("json", "") << "\n";

  std::cout << "\nCrossover front (smallest P_r where SC beats BR):\n";
  std::printf("%4s  %12s  %14s\n", "R_r", "crossover P_r", "feasibility wall");
  bool shapeHolds = true;
  double prev = 0.0;
  for (int r = 1; r <= rmax; ++r) {
    const double cross = squareCornerCrossover(r, 1);
    const double wall = 2.0 * std::sqrt(static_cast<double>(r));
    std::printf("%4d  %12.3f  %14.3f\n", r, cross, wall);
    if (cross < prev || cross < wall) shapeHolds = false;
    prev = cross;
  }

  // Cross-check closed forms against grid-measured VoC at one ratio.
  const Ratio probe{10, 2, 1};
  const double scCf = closedFormVoC(CandidateShape::kSquareCorner, probe);
  const double brCf = closedFormVoC(CandidateShape::kBlockRectangle, probe);
  const auto scQ = makeCandidate(CandidateShape::kSquareCorner, n, probe);
  const auto brQ = makeCandidate(CandidateShape::kBlockRectangle, n, probe);
  const double scMeas =
      static_cast<double>(scQ.volumeOfCommunication()) / (1.0 * n * n);
  const double brMeas =
      static_cast<double>(brQ.volumeOfCommunication()) / (1.0 * n * n);
  std::printf(
      "\ncross-check at 10:2:1, n=%d: SC closed-form %.4f vs grid %.4f; "
      "BR closed-form %.4f vs grid %.4f\n",
      n, scCf, scMeas, brCf, brMeas);

  const bool ok = shapeHolds && std::fabs(scCf - scMeas) < 0.05 &&
                  std::fabs(brCf - brMeas) < 0.05;
  std::cout << (ok ? "RESULT: surface shape matches paper Fig. 13 — SC wins "
                     "at high heterogeneity, crossover rises with R_r.\n"
                   : "RESULT: MISMATCH with expected Fig. 13 shape.\n");
  return ok ? 0 : 1;
}
