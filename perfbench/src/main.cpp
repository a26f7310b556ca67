// pushpart end-to-end benchmark.
//
//   perfbench --workload plan-serve|search-cold|product --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--corrupt-reference]
//
// Prints detail lines, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exits 1 when any output disagrees with its reference, 2 on bad usage or an
// error before a result exists.
#include <malloc.h>

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

/// Shortest text that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json(const perfbench::RunReport& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--corrupt-reference]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const auto mainStart = std::chrono::steady_clock::now();
  // Keep freed memory in the process and serve large blocks from the heap
  // rather than fresh mmap()s, so an op's time does not include page faults
  // whose cost varies with the host.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
  perfbench::RunOptions options;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
        haveWorkload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--work-dir") {
        options.workDir = value();
      } else if (arg == "--corrupt-reference") {
        options.corruptReference = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!haveWorkload) usage("--workload is required");
  bool known = false;
  for (const std::string& name : perfbench::workloadNames())
    known = known || name == options.workload;
  if (!known) usage("unknown workload '" + options.workload + "'");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  try {
    const perfbench::RunReport report =
        perfbench::runWorkload(options, mainStart);
    for (const std::string& line : report.lines) std::cout << line << "\n";
    std::cout << json(report) << std::endl;
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
