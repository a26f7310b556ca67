// E9 — the paper's §XI direction: beyond three processors.
//
// Two parts:
//   1. Two-processor validation: the two-owner constructors rebuild the prior
//      work's candidates and reproduce the classical 3:1 crossover the
//      paper quotes in §II (Square-Corner beats Straight-Line iff P_r > 3).
//   2. Four-and-more-processor exploration: the paper's DFA walk (random
//      start, random schedule, beautify) on k-owner partitions through the
//      one Push engine, reporting how often every slow owner ends
//      (asymptotically) rectangular and how strongly VoC contracts — the
//      experimental groundwork for the k ≥ 4 taxonomy the paper leaves open.
//
//   ./nproc_explore [--n=48] [--runs=30] [--seed=9]
//                   [--speeds=8:4:2:1,4:2:2:1:1,...]
#include <cstdio>
#include <iostream>
#include <sstream>
#include <vector>

#include "dfa/dfa.hpp"
#include "family/family.hpp"
#include "grid/builder.hpp"
#include "grid/metrics.hpp"
#include "shapes/kowner.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

using namespace pushpart;

namespace {

/// Geometry summary of a condensed k-owner partition.
struct ShapeStats {
  int rectangularProcs = 0;  ///< slow owners that are asymptotically rect
  int slowProcs = 0;
  bool allSlowRectangular = false;
  /// Pairs of slow owners whose enclosing rectangles overlap.
  int overlappingPairs = 0;
};

ShapeStats summarizeShape(const Partition& q) {
  ShapeStats stats;
  stats.slowProcs = q.owners() - 1;
  for (int a = 0; a < stats.slowProcs; ++a) {
    const Proc pa = procFromIndex(a);
    if (isAsymptoticallyRectangular(q, pa)) ++stats.rectangularProcs;
    for (int b = a + 1; b < stats.slowProcs; ++b)
      if (q.enclosingRect(pa).overlaps(q.enclosingRect(procFromIndex(b))))
        ++stats.overlappingPairs;
  }
  stats.allSlowRectangular = stats.rectangularProcs == stats.slowProcs;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int n = static_cast<int>(flags.i64("n", 48));
  const int runs = static_cast<int>(flags.i64("runs", 30));
  const auto seed = static_cast<std::uint64_t>(flags.i64("seed", 9));

  std::cout << "E9 (paper Sec. XI direction): the Push engine over k "
               "owners\n\n";

  // --- Part 1: two-processor validation ---------------------------------
  std::cout << "Two-processor validation (prior-work claims quoted in the "
               "paper's Sec. II):\n";
  Table two({"P_r", "StraightLine VoC/N^2", "SquareCorner VoC/N^2", "winner"});
  bool crossoverOk = true;
  for (double p : {1.0, 2.0, 3.0, 4.0, 6.0, 10.0, 15.0}) {
    const auto sl = makeTwoProcCandidate(TwoProcShape::kStraightLine, 200, p);
    const auto sc = makeTwoProcCandidate(TwoProcShape::kSquareCorner, 200, p);
    const double slV =
        static_cast<double>(sl.volumeOfCommunication()) / (200.0 * 200.0);
    const double scV =
        static_cast<double>(sc.volumeOfCommunication()) / (200.0 * 200.0);
    const bool scWins = scV < slV;
    if (p > kTwoProcCrossover + 0.5 && !scWins) crossoverOk = false;
    if (p < kTwoProcCrossover - 0.5 && scWins) crossoverOk = false;
    char buf[3][32];
    std::snprintf(buf[0], 32, "%.0f", p);
    std::snprintf(buf[1], 32, "%.4f", slV);
    std::snprintf(buf[2], 32, "%.4f", scV);
    two.addRow({buf[0], buf[1], buf[2],
                scWins ? "Square-Corner" : "Straight-Line"});
  }
  two.print(std::cout);
  std::printf("crossover at P_r = %.0f (classical result: 3)\n\n",
              kTwoProcCrossover);

  // --- Part 2: k >= 4 exploration ----------------------------------------
  std::vector<NSpeeds> vectors;
  if (flags.has("speeds")) {
    std::istringstream in(flags.str("speeds", ""));
    std::string token;
    while (std::getline(in, token, ',')) vectors.push_back(NSpeeds::parse(token));
  } else {
    for (const char* spec :
         {"8:4:2:1", "4:2:2:1:1", "10:3:2:1", "6:5:4:3:2:1"})
      vectors.push_back(NSpeeds::parse(spec));
  }

  std::cout << "k-processor condensation (" << runs << " runs each, n=" << n
            << "):\n";
  Table table({"speeds", "k", "allRect runs", "avg rect procs", "avg overlaps",
               "avg VoC shrink", "candidate dominates"});
  bool condensesEverywhere = true;
  bool candidatesDominate = true;
  std::vector<std::string> bestLines;
  for (const NSpeeds& speeds : vectors) {
    // Best structured candidate across every registered family (canonical,
    // layered, hierarchical — DESIGN.md §17). For 4-processor vectors this
    // is the weak Postulate 1 check — search outputs must never undercut
    // the candidate pool; for other k the best candidate is reported but
    // only the k=4 case is asserted (the canonical k=4 constructions are
    // the ones the taxonomy argument covers).
    std::int64_t bestCandidate = -1;
    std::string bestName = "n/a";
    builtinFamilies().forEachN(
        n, speeds, FamilySet::all(), [&](const FamilyCandidate& c) {
          const auto voc = c.partition.volumeOfCommunication();
          if (bestCandidate < 0 || voc < bestCandidate) {
            bestCandidate = voc;
            bestName = c.name;
          }
        });
    const bool assertDominance = speeds.owners() == 4 && bestCandidate >= 0;

    Rng master(seed);
    int allRect = 0;
    int dominated = 0;
    double rectProcs = 0, overlaps = 0, shrink = 0;
    for (int run = 0; run < runs; ++run) {
      Rng rng = master.split(static_cast<std::uint64_t>(run));
      Partition q0 = randomPartition(n, speeds, rng);
      const Schedule schedule = Schedule::random(rng, speeds.owners());
      const DfaResult result = runDfa(std::move(q0), schedule);
      const ShapeStats stats = summarizeShape(result.final);
      allRect += stats.allSlowRectangular ? 1 : 0;
      rectProcs += stats.rectangularProcs;
      overlaps += stats.overlappingPairs;
      shrink += 1.0 - static_cast<double>(result.vocEnd) /
                          static_cast<double>(result.vocStart);
      if (result.vocEnd > result.vocStart) condensesEverywhere = false;
      if (assertDominance) {
        if (bestCandidate <= result.vocEnd) ++dominated;
        else candidatesDominate = false;
      }
    }
    char cells[5][32];
    std::snprintf(cells[0], 32, "%d/%d", allRect, runs);
    std::snprintf(cells[1], 32, "%.2f/%d", rectProcs / runs,
                  speeds.owners() - 1);
    std::snprintf(cells[2], 32, "%.2f", overlaps / runs);
    std::snprintf(cells[3], 32, "%.0f%%", 100.0 * shrink / runs);
    if (assertDominance) {
      std::snprintf(cells[4], 32, "%d/%d", dominated, runs);
    } else {
      std::snprintf(cells[4], 32, "n/a");
    }
    table.addRow({speeds.str(), std::to_string(speeds.owners()),
                  cells[0], cells[1], cells[2], cells[3], cells[4]});
    if (bestCandidate >= 0) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  best family candidate for %s: %s (VoC %lld)",
                    speeds.str().c_str(), bestName.c_str(),
                    static_cast<long long>(bestCandidate));
      bestLines.emplace_back(line);
    }
  }
  table.print(std::cout);
  for (const std::string& line : bestLines) std::cout << line << "\n";

  const bool ok = crossoverOk && condensesEverywhere && candidatesDominate;
  std::cout << (ok ? "\nRESULT: 3:1 two-processor crossover reproduced; the "
                     "k-owner Push condenses every run without increasing VoC; "
                     "canonical k=4 candidates dominate every search output "
                     "— the paper's extensibility claim holds.\n"
                   : "\nRESULT: unexpected behaviour in the k-owner "
                     "engine.\n");
  return ok ? 0 : 1;
}
