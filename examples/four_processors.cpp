// Beyond three processors: condense a four-processor partition with the
// paper's DFA walk on a k-owner partition (paper §XI: "the ultimate aim is
// to determine the optimal data partitioning shape ... for any number of
// heterogeneous processors").
//
//   ./four_processors [--n=40] [--speeds=8:4:2:1] [--seed=11]
#include <cstdio>
#include <iostream>

#include "dfa/dfa.hpp"
#include "grid/builder.hpp"
#include "grid/metrics.hpp"
#include "grid/render.hpp"
#include "support/flags.hpp"

using namespace pushpart;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int n = static_cast<int>(flags.i64("n", 40));
  const auto speeds = NSpeeds::parse(flags.str("speeds", "8:4:2:1"));
  Rng rng(static_cast<std::uint64_t>(flags.i64("seed", 11)));

  std::cout << "Condensing a " << n << "x" << n << " matrix over "
            << speeds.owners() << " processors with speeds " << speeds.str()
            << " ('.' is the fastest, digits the slow owners by speed)\n\n";

  Partition q0 = randomPartition(n, speeds, rng);
  std::cout << "start (VoC " << q0.volumeOfCommunication() << "):\n"
            << renderAscii(q0, 40);

  const Schedule schedule = Schedule::random(rng, speeds.owners());
  const DfaResult result = runDfa(std::move(q0), schedule);

  std::cout << "\ncondensed after "
            << result.pushesApplied + result.beautify.pushesApplied
            << " pushes (VoC " << result.vocEnd << "):\n"
            << renderAscii(result.final, 40);

  int rectangular = 0;
  for (int x = 0; x + 1 < speeds.owners(); ++x)
    if (isAsymptoticallyRectangular(result.final, procFromIndex(x)))
      ++rectangular;
  std::printf(
      "\n%d of %d slow processors ended asymptotically rectangular; VoC "
      "shrank %.0f%%\n",
      rectangular, speeds.owners() - 1,
      100.0 * (1.0 - static_cast<double>(result.vocEnd) /
                         static_cast<double>(result.vocStart)));
  return 0;
}
