// E1 — paper §VII / Fig. 5: archetype frequencies of condensed DFA outputs.
//
// The paper ran the DFA ~10,000 times per speed ratio at N = 1000 on a
// cluster and observed that every condensed shape fell into archetypes A–D.
// This harness reruns that experiment (scaled down by default; restore the
// paper's scale with --n=1000 --runs=10000) and prints the per-ratio
// archetype histogram. Reproduction criterion: the Unknown column stays 0 —
// no counterexample to Postulate 1.
//
//   ./fig5_archetypes [--n=48] [--runs=40] [--seed=1] [--threads=0]
//                     [--ratios=2:1:1,3:1:1,...] [--csv=path]
#include <iostream>
#include <sstream>
#include <vector>

#include "dfa/batch.hpp"
#include "shapes/archetype.hpp"
#include "support/csv.hpp"
#include "support/flags.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

using namespace pushpart;

namespace {

std::vector<Ratio> parseRatios(const std::string& text) {
  std::vector<Ratio> out;
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) out.push_back(Ratio::parse(token));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  BatchOptions options;
  options.n = static_cast<int>(flags.i64("n", 48));
  options.runs = static_cast<int>(flags.i64("runs", 40));
  options.threads = static_cast<int>(flags.i64("threads", 0));
  options.seed = static_cast<std::uint64_t>(flags.i64("seed", 1));

  std::vector<Ratio> ratios;
  if (flags.has("ratios")) {
    ratios = parseRatios(flags.str("ratios", ""));
  } else {
    ratios.assign(paperRatios().begin(), paperRatios().end());
  }

  CsvWriter csv;
  if (flags.has("csv"))
    csv = CsvWriter(flags.str("csv", ""),
                    {"ratio", "A", "B", "C", "D", "Unknown", "runs"});

  std::cout << "E1 (paper Sec. VII, Fig. 5): archetypes of condensed DFA "
               "outputs\n"
            << "n=" << options.n << " runs/ratio=" << options.runs
            << "  (paper: n=1000, ~10000 runs/ratio)\n\n";

  Table table({"ratio", "A", "B", "C", "D", "Unknown", "pushes/run"});
  Stopwatch wall;
  int totalUnknown = 0;
  for (const Ratio& ratio : ratios) {
    options.ratio = ratio;
    int tally[kNumArchetypes] = {};
    std::int64_t pushes = 0;
    const BatchSummary summary = runBatch(options, [&](const BatchRun& run) {
      ++tally[static_cast<int>(
          classifyArchetype(run.result.final).archetype)];
      pushes += run.result.pushesApplied;
    });
    for (const BatchFailure& f : summary.failures)
      std::cerr << "ratio " << ratio.str() << " run " << f.runIndex
                << " failed: " << f.message << "\n";
    totalUnknown += tally[static_cast<int>(Archetype::Unknown)];
    table.addRow(ratio.str(),
                 {static_cast<double>(tally[0]), static_cast<double>(tally[1]),
                  static_cast<double>(tally[2]), static_cast<double>(tally[3]),
                  static_cast<double>(tally[4]),
                  static_cast<double>(pushes) / options.runs});
    csv.row({ratio.str(), std::to_string(tally[0]), std::to_string(tally[1]),
             std::to_string(tally[2]), std::to_string(tally[3]),
             std::to_string(tally[4]), std::to_string(options.runs)});
  }
  table.print(std::cout);
  if (!csv.close()) return 1;
  std::cout << "\nelapsed " << wall.seconds() << " s\n";
  std::cout << (totalUnknown == 0
                    ? "RESULT: no counterexample found — Postulate 1 holds on "
                      "this sample (matches paper).\n"
                    : "RESULT: UNKNOWN shapes found — counterexample "
                      "candidates, inspect!\n");
  return totalUnknown == 0 ? 0 : 1;
}
