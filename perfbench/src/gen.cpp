#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "grid/ratio.hpp"

namespace perfbench {

using pushpart::Algo;
using pushpart::PlanRequest;
using pushpart::PlanTier;
using pushpart::Proc;
using pushpart::Ratio;
using pushpart::Topology;

std::uint64_t BenchRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double BenchRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int BenchRng::range(int lo, int hi) {
  if (hi < lo) throw std::invalid_argument("BenchRng::range: hi < lo");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Rejection sampling keeps the draw unbiased for any span.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return lo + static_cast<int>(x % span);
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  if (n == 0) throw std::invalid_argument("Zipf: empty universe");
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::draw(BenchRng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double Weyl::at(std::size_t k) const {
  const double x = offset_ + static_cast<double>(k) * alpha_;
  return x - std::floor(x);
}

int Weyl::range(std::size_t k, int lo, int hi) const {
  const int span = hi - lo + 1;
  return lo + std::min(span - 1, static_cast<int>(at(k) * span));
}

namespace {

// Irrational steps for the Weyl streams: the golden ratio's conjugate, the
// two steps of the plastic-number (R2) sequence, and sqrt(2) - 1, sqrt(3) - 1
// and sqrt(5) - 2. Distinct steps keep the streams from locking together.
constexpr double kPhi = 0.6180339887498949;
constexpr double kR2a = 0.7548776662466927;
constexpr double kR2b = 0.5698402909980532;
constexpr double kSqrt2 = 0.4142135623730951;
constexpr double kSqrt3 = 0.7320508075688772;
constexpr double kSqrt5 = 0.2360679774997897;

// Workload parameters; gen.hpp describes each workload.
constexpr std::size_t kKeys = 6000;
constexpr double kZipfS = 1.0;
constexpr std::size_t kSearchEvery = 20;
constexpr int kPlanSearchRuns = 2;
constexpr int kKeyNMin = 64, kKeyNMax = 384;
constexpr int kSearchKeyNMin = 64, kSearchKeyNMax = 96;
constexpr double kPrMax = 20.0, kRrMax = 10.0;

constexpr int kColdNMin = 96, kColdNMax = 128;
constexpr int kColdSearchRuns = 2;

constexpr double kLargeShare = 0.15;
constexpr int kSmallNMin = 128, kSmallNMax = 256;
constexpr int kLargeSizes[] = {500, 512, 544, 576, 608, 640};

constexpr Algo kAlgos[] = {Algo::kSCB, Algo::kPCB, Algo::kSCO, Algo::kPCO,
                           Algo::kPIO};
constexpr Proc kHubs[] = {Proc::P, Proc::R, Proc::S};

/// Three decimals keep every speed at <= 5 significant digits, so the
/// oracle's 6-digit key rounding maps each respelled form back exactly.
double milli(double v) { return std::round(v * 1000.0) / 1000.0; }

/// `key` in another spelling: speeds scaled by `scale` and, when `relabel`
/// is set, R and S swapped (a star hub relabelled with them).
/// canonicalize() maps every such form back onto the key.
PlanRequest respell(const PlanRequest& key, double scale, bool relabel) {
  PlanRequest form = key;
  form.ratio = Ratio{key.ratio.p * scale, key.ratio.r * scale,
                     key.ratio.s * scale};
  if (relabel) {
    std::swap(form.ratio.r, form.ratio.s);
    if (form.star.hub == Proc::R)
      form.star.hub = Proc::S;
    else if (form.star.hub == Proc::S)
      form.star.hub = Proc::R;
  }
  return form;
}

}  // namespace

PlanServeInputs makePlanServe(std::uint64_t seed, std::size_t ops) {
  BenchRng rng(seed);
  const Weyl size(kPhi, rng), algo(kSqrt2, rng), topo(kSqrt3, rng),
      hub(kSqrt5, rng), ratioR(kR2a, rng), ratioP(kR2b, rng);
  const auto searchPhase = static_cast<std::size_t>(
      rng.range(0, static_cast<int>(kSearchEvery) - 1));
  PlanServeInputs in;
  in.keys.reserve(kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) {
    PlanRequest req;
    const bool search = k % kSearchEvery == searchPhase;
    req.tier = search ? PlanTier::kSearch : PlanTier::kFast;
    req.n = search ? size.range(k, kSearchKeyNMin, kSearchKeyNMax)
                   : size.range(k, kKeyNMin, kKeyNMax);
    req.algo = kAlgos[algo.range(k, 0, 4)];
    req.topology = topo.range(k, 0, 1) == 0 ? Topology::kFullyConnected
                                            : Topology::kStar;
    req.star.hub =
        req.topology == Topology::kStar ? kHubs[hub.range(k, 0, 2)] : Proc::P;
    const double rr = milli(1.0 + (kRrMax - 1.0) * ratioR.at(k));
    const double pr = std::max(rr, milli(rr + (kPrMax - rr) * ratioP.at(k)));
    req.ratio = Ratio{pr, rr, 1.0};
    req.searchRuns = kPlanSearchRuns;
    req.searchSeed = static_cast<std::uint64_t>(k) + 1;
    in.keys.push_back(req);
  }

  const Zipf zipf(kKeys, kZipfS);
  in.stream.reserve(ops);
  in.keyOf.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t k = zipf.draw(rng);
    const double scale = rng.uniform(0.5, 8.0);
    const bool relabel = rng.range(0, 1) == 1;
    in.stream.push_back(respell(in.keys[k], scale, relabel));
    in.keyOf.push_back(k);
  }
  return in;
}

std::vector<PlanRequest> makeSearchCold(std::uint64_t seed, std::size_t ops) {
  BenchRng rng(seed);
  const Weyl size(kPhi, rng), algo(kSqrt2, rng);
  // Distinct by construction: consecutive seeds from a seed-derived base.
  const std::uint64_t seedBase = (rng.next() >> 16) + 1;
  const auto& ratios = pushpart::paperRatios();
  std::vector<PlanRequest> out;
  out.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    PlanRequest req;
    req.n = size.range(i, kColdNMin, kColdNMax);
    req.ratio = ratios[i % ratios.size()];
    req.algo = kAlgos[algo.range(i, 0, 4)];
    req.tier = PlanTier::kSearch;
    req.searchRuns = kColdSearchRuns;
    req.searchSeed = seedBase + i;
    out.push_back(req);
  }
  return out;
}

std::vector<ProductJob> makeProduct(std::uint64_t seed, std::size_t ops) {
  BenchRng rng(seed);
  const Weyl size(kPhi, rng), algo(kSqrt2, rng);
  const auto& ratios = pushpart::paperRatios();
  const auto ratioPhase = static_cast<std::size_t>(rng.range(0, 10));
  const auto largeCount = std::min(
      ops, static_cast<std::size_t>(
               std::llround(kLargeShare * static_cast<double>(ops))));
  std::vector<ProductJob> out;
  out.reserve(ops);
  for (std::size_t j = 0; j < largeCount; ++j) {
    ProductJob job;
    job.large = true;
    job.request.n = kLargeSizes[j % std::size(kLargeSizes)];
    job.request.ratio = ratios[(j * 5 + j / ratios.size()) % ratios.size()];
    job.request.algo = j % 2 == 0 ? Algo::kSCB : Algo::kPCB;
    out.push_back(job);
  }
  for (std::size_t j = 0; largeCount + j < ops; ++j) {
    ProductJob job;
    job.request.n = size.range(j, kSmallNMin, kSmallNMax);
    job.request.ratio = ratios[(j + ratioPhase) % ratios.size()];
    job.request.algo = algo.range(j, 0, 1) == 0 ? Algo::kSCB : Algo::kPCB;
    out.push_back(job);
  }
  for (ProductJob& job : out) {
    job.request.tier = PlanTier::kFast;
    job.execSeed = rng.next();
  }
  shuffle(out, rng);
  return out;
}

}  // namespace perfbench
