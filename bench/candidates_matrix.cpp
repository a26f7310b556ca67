// E5 + E19 — the candidate × algorithm optimality map, extended across
// candidate families with communication lower-bound optimality gaps.
//
// Part 1 (E5, extension of paper §X): the paper defers the complete analysis
// of its six candidate shapes across the five MMM algorithms to future work;
// this harness performs it with the Eq. 2–9 models. For every paper ratio
// and every algorithm it ranks all feasible candidates and prints the winner
// plus its margin over the Traditional-Rectangle baseline (the shape all
// prior work assumed). The trailing columns report the best VoC over the
// selected candidate families (src/family) and its distance from the
// memory-independent communication lower bound (src/bounds) in percent.
//
// Part 2 (E19): the Fig. 13 ratio grid (P_r ∈ [1, pmax] × R_r ∈ [1, rmax],
// S_r = 1) scanned at integer granularity n, comparing the best canonical
// VoC against the best layered/hierarchical VoC per cell. The paper's
// six-candidate theorem is continuous; at finite n the canonical
// constructions round their sub-rectangles, and the extended families —
// which place exact element counts — strictly undercut them on a band of
// cells. The scan counts those strict wins and the lower-bound gap
// distribution, and the self-check requires at least one strict win when an
// extended family is selected (the E19 claim).
//
// The machine is parameterized by --comm-fraction: T_send is chosen so that
// total communication costs ≈ that fraction of the balanced computation
// time (default 0.3 — a realistic cluster where communication matters but
// does not dominate).
//
//   ./candidates_matrix [--n=90] [--comm-fraction=0.3] [--flops=1e9]
//                       [--families=all] [--pmax=20] [--rmax=10]
//                       [--csv=path] [--json=path]
//
// --families selects the candidate families for the gap columns and the
// grid scan: "canonical", "all", or a comma list ("layered,hierarchical").
// --json writes the Part 2 grid as a machine-diffable document: experiment,
// families, n, pmax, rmax, one cell object per line ({pr, rr, canonicalVoc,
// familyVoc, winnerFamily, candidate, gapPct, strictWin}, a VoC of -1 where
// that side has no feasible candidate), then cellsTotal, strictWins,
// gapMeanPct and gapMaxPct, with round-trip exact doubles — the E19
// artifact CI uploads as BENCH_families.json. A --csv or --json file that
// cannot be written is reported ("cannot write <path>") and exits 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>

#include "bounds/bounds.hpp"
#include "family/rank.hpp"
#include "model/closed_form.hpp"
#include "model/optimal.hpp"
#include "support/csv.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

using namespace pushpart;

namespace {

// T_send so that (typical VoC ≈ 1.3·n²) costs commFraction of the balanced
// computation n³/T.
void tuneMachine(Machine& machine, const Ratio& ratio, int n,
                 double commFraction) {
  machine.ratio = ratio;
  machine.sendElementSeconds = commFraction * static_cast<double>(n) *
                               machine.baseFlopSeconds / ratio.total() / 1.3;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int n = static_cast<int>(flags.i64("n", 90));
  const double commFraction = flags.f64("comm-fraction", 0.3);
  const int pmax = static_cast<int>(flags.i64("pmax", 20));
  const int rmax = static_cast<int>(flags.i64("rmax", 10));
  const FamilySet families = FamilySet::parse(flags.str("families", "all"));
  Machine machine;
  machine.baseFlopSeconds = 1.0 / flags.f64("flops", 1e9);

  CsvWriter csv;
  if (flags.has("csv"))
    csv = CsvWriter(flags.str("csv", ""),
                    {"ratio", "algo", "winner", "winnerExecSeconds",
                     "traditionalExecSeconds", "speedupVsTraditional",
                     "familyBest", "familyVoC", "lowerBoundGapPct"});

  std::cout << "E5 (extends paper Sec. X): optimal candidate per ratio x "
               "algorithm, n=" << n << ", fully-connected, comm/comp = "
            << commFraction << ", families=" << families.str() << "\n\n";

  Table table({"ratio", "SCB", "PCB", "SCO", "PCO", "PIO", "gap%"});
  int scOverlapWins = 0, scOverlapCells = 0;
  int scbAgree = 0, scbCells = 0;
  bool gapsOk = true;
  for (const Ratio& ratio : paperRatios()) {
    tuneMachine(machine, ratio, n, commFraction);

    // The family-wide VoC winner at this ratio and its lower-bound gap —
    // shared by every algorithm column (VoC depends only on the partition).
    const auto famRanked =
        rankFamilyCandidates(Algo::kSCB, n, machine, families);
    const FamilyRanked* famBest = nullptr;
    for (const auto& f : famRanked) {
      if (f.gapPct < 0) gapsOk = false;
      if (!famBest || f.voc < famBest->voc) famBest = &f;
    }

    std::vector<std::string> cells{ratio.str()};
    for (Algo algo : kAllAlgos) {
      const auto ranked = rankCandidates(algo, n, machine);
      double traditional = 0;
      for (const auto& r : ranked)
        if (r.shape == CandidateShape::kTraditionalRectangle)
          traditional = r.model.execSeconds;
      const auto& best = ranked.front();
      const double speedup =
          traditional > 0 ? traditional / best.model.execSeconds : 1.0;
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%s (x%.2f)",
                    candidateName(best.shape), speedup);
      cells.push_back(cell);
      csv.row({ratio.str(), algoName(algo), candidateName(best.shape),
               formatNumber(best.model.execSeconds),
               formatNumber(traditional), formatNumber(speedup),
               famBest ? famBest->name : "-",
               famBest ? formatNumber(static_cast<double>(famBest->voc)) : "0",
               famBest ? formatNumber(famBest->gapPct) : "0"});

      const bool pastCrossover =
          candidateFeasible(CandidateShape::kSquareCorner, n, ratio) &&
          ratio.p > squareCornerCrossover(ratio.r, ratio.s);
      if ((algo == Algo::kSCB || algo == Algo::kPCB || algo == Algo::kSCO) &&
          pastCrossover) {
        ++scOverlapCells;
        if (best.shape == CandidateShape::kSquareCorner) ++scOverlapWins;
      }
      if (algo == Algo::kSCB) {
        // The model winner must agree with the closed-form VoC ranking.
        ++scbCells;
        CandidateShape predicted = CandidateShape::kTraditionalRectangle;
        double bestVoc = std::numeric_limits<double>::infinity();
        for (CandidateShape s : kAllCandidates) {
          if (!candidateFeasible(s, n, ratio)) continue;
          const double voc = closedFormVoC(s, ratio);
          if (voc < bestVoc) {
            bestVoc = voc;
            predicted = s;
          }
        }
        // Closed forms tie Block and Traditional exactly; accept either.
        const bool agree =
            best.shape == predicted ||
            std::fabs(closedFormVoC(best.shape, ratio) - bestVoc) < 1e-9;
        if (agree) ++scbAgree;
      }
    }
    char gapCell[32];
    std::snprintf(gapCell, sizeof(gapCell), "%.2f",
                  famBest ? famBest->gapPct : 0.0);
    cells.push_back(gapCell);
    table.addRow(cells);
  }
  table.print(std::cout);
  if (!csv.close()) return 1;

  std::printf("\nSquare-Corner wins %d/%d cells past the Fig. 13 crossover "
              "(SCB/PCB/SCO at ratios with P_r > crossover)\n",
              scOverlapWins, scOverlapCells);
  std::printf("SCB model winner agrees with closed-form VoC ranking in "
              "%d/%d ratios (crossover at P_r = %.1f for R_r = S_r = 1)\n",
              scbAgree, scbCells, squareCornerCrossover(1, 1));

  // ---- Part 2 (E19): family-vs-canonical scan over the Fig. 13 grid. ----
  std::optional<JsonWriter> json;
  if (flags.has("json")) {
    json.emplace(flags.str("json", ""));
    json->field("experiment", "candidates_matrix")
        .field("families", families.str()).field("n", n).field("pmax", pmax)
        .field("rmax", rmax).beginArray("cells");
  }

  std::cout << "\nE19: best family VoC vs best canonical VoC over the "
               "Fig. 13 grid, n=" << n << "\n"
            << "cells: '=' tie, 'c' canonical strictly best, 'L'/'H' "
               "layered/hierarchical strict win\n\n";

  int gridCells = 0, strictWins = 0;
  double gapSum = 0.0, gapMax = 0.0;
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
      tuneMachine(machine, ratio, n, commFraction);
      const auto ranked = rankFamilyCandidates(Algo::kSCB, n, machine,
                                               families);
      const FamilyRanked* canon = nullptr;
      const FamilyRanked* ext = nullptr;
      const FamilyRanked* overall = nullptr;
      for (const auto& f : ranked) {
        if (f.gapPct < 0) gapsOk = false;
        if (f.family == FamilyId::kCanonical) {
          if (!canon || f.voc < canon->voc) canon = &f;
        } else if (!ext || f.voc < ext->voc) {
          ext = &f;
        }
        if (!overall || f.voc < overall->voc) overall = &f;
      }
      ++gridCells;
      const bool strictWin = canon && ext && ext->voc < canon->voc;
      if (strictWin) ++strictWins;
      if (overall) {
        gapSum += overall->gapPct;
        gapMax = std::max(gapMax, overall->gapPct);
      }
      char mark = '=';
      if (!ext)
        mark = 'c';
      else if (strictWin)
        mark = ext->family == FamilyId::kLayered ? 'L' : 'H';
      else if (canon && canon->voc < ext->voc)
        mark = 'c';
      std::printf("  %c", mark);

      if (json && overall)
        json->beginObject().field("pr", p).field("rr", r)
            .field("canonicalVoc", canon ? canon->voc : std::int64_t{-1})
            .field("familyVoc", ext ? ext->voc : std::int64_t{-1})
            .field("winnerFamily", familyName(overall->family))
            .field("candidate", overall->name)
            .field("gapPct", overall->gapPct).field("strictWin", strictWin)
            .end();
    }
    std::printf("\n");
  }

  const double gapMean = gridCells > 0 ? gapSum / gridCells : 0.0;
  if (json) {
    json->end().field("cellsTotal", gridCells).field("strictWins", strictWins)
        .field("gapMeanPct", gapMean).field("gapMaxPct", gapMax);
    if (!json->close()) return 1;
    std::cout << "\njson grid written to " << flags.str("json", "") << "\n";
  }

  std::printf("\nFAMILY_STRICT_WIN: %d of %d grid cells where an extended "
              "candidate strictly beats all six canonical shapes\n",
              strictWins, gridCells);
  std::printf("%s: lower-bound gaps over the grid — mean %.2f%%, max %.2f%%"
              " (all >= 0: %s)\n",
              gapsOk ? "GAP_OK" : "GAP_VIOLATION", gapMean, gapMax,
              gapsOk ? "yes" : "NO");

  std::cout << "\nNote: the paper's \"Square-Corner optimal at ALL ratios "
               "under bulk overlap\" is its quoted TWO-processor result. With "
               "three processors R and S never own a full pivot line, so "
               "their remainder pins SCO/PCO execution and the winner follows "
               "the VoC ranking — overlap merely subsidises the Square-Corner "
               "near the crossover. See EXPERIMENTS.md (E5, E19).\n";
  const bool e5Ok = scOverlapCells > 0 && scOverlapWins == scOverlapCells &&
                    scbAgree == scbCells;
  // The E19 claim only binds when an extended family is in the selection:
  // at finite granularity exact-count placement must beat the rounded
  // canonical constructions somewhere on the grid.
  const bool e19Ok = gapsOk && (!families.extended() || strictWins > 0);
  const bool ok = e5Ok && e19Ok;
  std::cout << (ok ? "RESULT: winners track the closed-form VoC ranking; the "
                     "Square-Corner takes over past the Fig. 13 crossover; "
                     "extended families strictly beat the canonical six on "
                     "part of the grid.\n"
                   : "RESULT: pattern differs — inspect table.\n");
  return ok ? 0 : 1;
}
