// The three benchmark workloads and the run that measures one of them.
//
//   plan-serve   Zipf-skewed plan traffic through the oracle: cache, atlas,
//                tier A, a minority of tier-B fallbacks.
//   search-cold  distinct tier-B keys only: the DFA search at work.
//   product      request -> plan -> candidate -> comm plan -> simulation ->
//                threaded execution, verified against the serial product.
//
// One closed-loop client in one process drives each workload. A run sends
// its op stream in one or more rounds, each after a fresh set-up; the op
// count is fixed before the run starts (from its seconds), so every work
// counter repeats exactly at one seed and from round to round.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics from spans instead of end-to-end ones.
  bool trace = false;
  /// Self-test: make the reference of op 0 wrong; the run must then fail.
  bool corruptReference = false;
  /// Directory for the atlas file and the span dump (inside the checkout).
  std::string workDir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable detail (counters, checks), printed before the result.
  std::vector<std::string> lines;
};

const std::vector<std::string>& workloadNames();

/// Runs one workload. `mainStart` is when main() was entered: the first
/// set-up is timed from there.
RunReport runWorkload(const RunOptions& options,
                      std::chrono::steady_clock::time_point mainStart);

}  // namespace perfbench
