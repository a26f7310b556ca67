// Golden replay of simulateMMM.
//
// tests/corpus/sim_golden.txt records every SimResult field of 765 runs:
// the five algorithms over fully connected and star networks (each hub),
// chunked and PIO-blocked schedules and α ∈ {0, 2.5e-6}, on seeded random
// partitions and candidate shapes, under the default fault plan and under
// plans with drops, a latency spike, a NIC stall and a mid-run death with
// and without rebalancing. The last 45 runs kill each processor in PIO's
// final drain, after the last pivot block was sent. Each line names its
// inputs in full (times as %a hex floats), so the replay re-runs it and
// compares the formatted result byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "grid/builder.hpp"
#include "shapes/candidates.hpp"
#include "sim/mmm_sim.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

std::string hexDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

double parseHexDouble(const std::string& token) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0')
    throw std::runtime_error("bad double " + token);
  return v;
}

Proc procFromName(const std::string& name) {
  for (Proc p : kAllProcs)
    if (name.size() == 1 && name[0] == procName(p)) return p;
  throw std::runtime_error("bad processor " + name);
}

Algo algoFromName(const std::string& name) {
  for (Algo a : kAllAlgos)
    if (name == algoName(a)) return a;
  throw std::runtime_error("bad algorithm " + name);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream is(text);
  while (std::getline(is, part, sep)) parts.push_back(part);
  return parts;
}

/// Every SimResult field, in the order the golden file records them.
std::string formatResult(const SimResult& r) {
  std::ostringstream os;
  os << hexDouble(r.execSeconds) << ' ' << hexDouble(r.commSeconds) << ' '
     << hexDouble(r.overlapSeconds) << ' ' << hexDouble(r.compSeconds) << ' '
     << r.network.messagesSent << ' ' << r.network.elementsMoved;
  for (double busy : r.network.nicBusySeconds) os << ' ' << hexDouble(busy);
  os << ' ' << r.network.dropsInjected << ' ' << r.network.retriesSent << ' '
     << r.network.transfersAbandoned << ' '
     << r.network.deadEndpointFailures << ' ' << (r.completed ? 1 : 0);
  const SimRecovery& rec = r.recovery;
  os << ' ' << (rec.processorDied ? 1 : 0) << ' ' << procName(rec.deadProc)
     << ' ' << hexDouble(rec.deathDetectedAt) << ' ' << rec.failoverPivot
     << ' ' << rec.reassignedElements << ' ' << rec.refetchedElements << ' '
     << hexDouble(rec.recoverySeconds) << ' '
     << (rec.failoverPlanVerified ? 1 : 0) << ' ' << rec.vocBefore << ' '
     << rec.vocAfter;
  return os.str();
}

/// "-" is the default plan; otherwise comma-joined parts seed=<u64>,
/// drop=<p>, spike=<begin>/<end>/<alphaFactor>/<betaFactor>,
/// stall=<proc>/<at>/<seconds> and death=<proc>/<at>.
FaultPlan parsePlan(const std::string& text) {
  FaultPlan plan;
  if (text == "-") return plan;
  for (const std::string& part : split(text, ',')) {
    const auto eq = part.find('=');
    if (eq == std::string::npos) throw std::runtime_error("bad plan " + text);
    const std::string key = part.substr(0, eq);
    const std::vector<std::string> v = split(part.substr(eq + 1), '/');
    if (key == "seed" && v.size() == 1) {
      plan.seed = std::stoull(v[0]);
    } else if (key == "drop" && v.size() == 1) {
      plan.dropProbability = parseHexDouble(v[0]);
    } else if (key == "spike" && v.size() == 4) {
      plan.spikes.push_back({parseHexDouble(v[0]), parseHexDouble(v[1]),
                             parseHexDouble(v[2]), parseHexDouble(v[3])});
    } else if (key == "stall" && v.size() == 3) {
      plan.stalls.push_back(
          {procFromName(v[0]), parseHexDouble(v[1]), parseHexDouble(v[2])});
    } else if (key == "death" && v.size() == 2) {
      plan.death = ProcDeath{procFromName(v[0]), parseHexDouble(v[1])};
    } else {
      throw std::runtime_error("bad plan part " + part);
    }
  }
  return plan;
}

struct GoldenPartition {
  Partition q;
  Ratio ratio;
};

/// "partition <id> random <ratio> <n> <seed> <hash>" or
/// "partition <id> candidate <shape> <ratio> <n> <hash>".
std::pair<std::string, GoldenPartition> parsePartition(
    std::istringstream& is) {
  std::string id, kind, hash;
  is >> id >> kind;
  GoldenPartition p{Partition(1), Ratio{1, 1, 1}};
  if (kind == "random") {
    std::string ratio;
    int n = 0;
    std::uint64_t seed = 0;
    is >> ratio >> n >> seed >> hash;
    p.ratio = Ratio::parse(ratio);
    Rng rng(seed);
    p.q = randomPartition(n, p.ratio, rng);
  } else if (kind == "candidate") {
    std::string shape, ratio;
    int n = 0;
    is >> shape >> ratio >> n >> hash;
    p.ratio = Ratio::parse(ratio);
    p.q = makeCandidate(candidateFromName(shape), n, p.ratio);
  } else {
    throw std::runtime_error("bad partition kind " + kind);
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(p.q.hash()));
  if (!is || hash != buf)
    throw std::runtime_error("partition " + id + " does not rebuild: hash " +
                             buf + ", recorded " + hash);
  return {id, std::move(p)};
}

/// Fixed run settings the golden lines do not repeat.
SimOptions baseOptions(const Ratio& ratio) {
  SimOptions opts;
  opts.machine.sendElementSeconds = 8e-9;
  opts.machine.baseFlopSeconds = 1e-9;
  opts.machine.ratio = ratio;
  opts.retry.timeoutSeconds = 1e-5;
  opts.retry.backoffSeconds = 1e-6;
  opts.retry.backoffMaxSeconds = 1e-4;
  return opts;
}

/// Topology tokens: "fc", or "star" followed by the hub's letter.
void applyTopology(const std::string& token, SimOptions& opts) {
  if (token == "fc") {
    opts.topology = Topology::kFullyConnected;
  } else if (token.size() == 5 && token.rfind("star", 0) == 0) {
    opts.topology = Topology::kStar;
    opts.star.hub = procFromName(token.substr(4));
  } else {
    throw std::runtime_error("bad topology " + token);
  }
}

TEST(SimGoldenTest, ReplaysEveryRecordedRun) {
  const std::string path =
      std::string(PUSHPART_CORPUS_DIR) + "/sim_golden.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path;
  std::map<std::string, GoldenPartition> partitions;
  std::string line;
  int lineNo = 0, runs = 0, died = 0, incomplete = 0, retried = 0;
  int drained = 0;  // PIO runs that failed over at pivot n
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    if (tag == "partition") {
      partitions.insert(parsePartition(is));
      continue;
    }
    ASSERT_EQ(tag, "r") << "line " << lineNo;
    std::string pid, algo, topology, alpha, plan, sep;
    int chunks = 0, pioBlock = 0, rebalance = 0;
    is >> pid >> algo >> topology >> chunks >> pioBlock >> alpha >>
        rebalance >> plan >> sep;
    ASSERT_TRUE(is && sep == "=") << "line " << lineNo;
    std::string want;
    std::getline(is >> std::ws, want);
    const auto it = partitions.find(pid);
    ASSERT_NE(it, partitions.end()) << "line " << lineNo;

    SimOptions opts = baseOptions(it->second.ratio);
    applyTopology(topology, opts);
    opts.chunksPerPair = chunks;
    opts.pioBlockSize = pioBlock;
    opts.machine.alphaSeconds = parseHexDouble(alpha);
    opts.rebalanceOnDeath = rebalance == 1;
    opts.faults = parsePlan(plan);
    const SimResult got = simulateMMM(algoFromName(algo), it->second.q, opts);
    ASSERT_EQ(formatResult(got), want) << "line " << lineNo << ": " << line;
    ++runs;
    died += got.recovery.processorDied ? 1 : 0;
    incomplete += got.completed ? 0 : 1;
    retried += got.network.retriesSent > 0 ? 1 : 0;
    if (algo == "PIO" && got.recovery.processorDied &&
        got.recovery.failoverPivot == it->second.q.n())
      ++drained;
  }
  // The sweep reaches every outcome the simulator can report.
  EXPECT_EQ(runs, 765);
  EXPECT_GT(died, 100);
  EXPECT_GT(incomplete, 20);
  EXPECT_GT(retried, 100);
  // A death in PIO's final drain fails over at pivot n, not mid-run.
  EXPECT_GT(drained, 0);
}

}  // namespace
}  // namespace pushpart
