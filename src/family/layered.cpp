#include "family/layered.hpp"

#include <algorithm>

#include "family/build.hpp"

namespace pushpart {

namespace fd = family_detail;

namespace {

template <typename Spec, typename Namer>
std::string specToken(const Spec& spec, Namer&& memberName) {
  std::string out = "layers:";
  for (std::size_t k = 0; k < spec.layers.size(); ++k) {
    if (k) out += '/';
    for (std::size_t m = 0; m < spec.layers[k].size(); ++m) {
      if (m) out += '-';
      out += memberName(spec.layers[k][m]);
    }
  }
  out += spec.rowBands ? ":r" : ":c";
  return out;
}

}  // namespace

std::string layeredSpecName(const LayeredSpec& spec) {
  return specToken(spec, [](Proc p) { return std::string(1, procName(p)); });
}

std::string layeredSpecName(const NLayeredSpec& spec) {
  return specToken(spec, [](int rank) { return std::to_string(rank); });
}

std::optional<Partition> makeLayeredPartition(int n, const Ratio& ratio,
                                              const LayeredSpec& spec) {
  if (n <= 0 || !ratio.valid()) return std::nullopt;
  const auto counts = ratio.elementCounts(n);
  std::vector<std::vector<fd::LayerMember>> layers;
  for (const auto& band : spec.layers) {
    auto& out = layers.emplace_back();
    for (const Proc p : band) out.push_back({p, counts[procSlot(p)]});
  }
  Partition q(n, Proc::P);
  if (!fd::buildLayeredOnto(q, Proc::P, layers, spec.rowBands))
    return std::nullopt;
  return q;
}

std::optional<Partition> makeLayeredPartition(int n, const NSpeeds& speeds,
                                               const NLayeredSpec& spec) {
  if (n <= 0 || !speeds.valid()) return std::nullopt;
  const int k = speeds.owners();
  const auto counts = speeds.elementCounts(n);
  std::vector<std::vector<fd::LayerMember>> layers;
  for (const auto& band : spec.layers) {
    auto& out = layers.emplace_back();
    for (const int rank : band) {
      const Proc owner = ownerOfRank(rank, k);
      out.push_back({owner, counts[procSlot(owner)]});
    }
  }
  Partition q(n, k);
  if (!fd::buildLayeredOnto(q, q.fastest(), layers, spec.rowBands))
    return std::nullopt;
  return q;
}

const std::vector<LayeredSpec>& allLayeredSpecs() {
  static const std::vector<LayeredSpec> specs = [] {
    std::vector<LayeredSpec> out;
    std::array<Proc, 3> procs = {Proc::P, Proc::R, Proc::S};
    std::sort(procs.begin(), procs.end());
    // Three singleton bands: every permutation.
    do {
      out.push_back({{{procs[0]}, {procs[1]}, {procs[2]}}, true});
    } while (std::next_permutation(procs.begin(), procs.end()));
    // Two bands: singleton + ordered pair, both stackings.
    std::sort(procs.begin(), procs.end());
    do {
      out.push_back({{{procs[0]}, {procs[1], procs[2]}}, true});
      out.push_back({{{procs[1], procs[2]}, {procs[0]}}, true});
    } while (std::next_permutation(procs.begin(), procs.end()));
    // Both orientations of everything.
    const std::size_t rows = out.size();
    for (std::size_t i = 0; i < rows; ++i) {
      LayeredSpec t = out[i];
      t.rowBands = false;
      out.push_back(std::move(t));
    }
    return out;
  }();
  return specs;
}

std::vector<NLayeredSpec> allNLayeredSpecs(int procs) {
  std::vector<NLayeredSpec> out;
  if (procs < 2) return out;
  // Compositions of the speed-sorted sequence 0..procs-1 into contiguous
  // layers: bit b of the mask cuts between processors b and b+1.
  const unsigned cuts = 1u << (procs - 1);
  for (unsigned mask = 0; mask < cuts; ++mask) {
    NLayeredSpec spec;
    spec.layers.emplace_back();
    for (int p = 0; p < procs; ++p) {
      spec.layers.back().push_back(p);
      if (p + 1 < procs && ((mask >> p) & 1)) spec.layers.emplace_back();
    }
    NLayeredSpec cols = spec;
    cols.rowBands = false;
    out.push_back(std::move(spec));
    out.push_back(std::move(cols));
  }
  return out;
}

void LayeredFamily::enumerate(
    int n, const Ratio& ratio,
    const std::function<void(FamilyCandidate&&)>& emit) const {
  for (const LayeredSpec& spec : allLayeredSpecs()) {
    std::optional<Partition> q = makeLayeredPartition(n, ratio, spec);
    if (!q) continue;
    FamilyCandidate c;
    c.family = FamilyId::kLayered;
    c.name = layeredSpecName(spec);
    c.partition = *std::move(q);
    emit(std::move(c));
  }
}

void LayeredFamily::enumerateN(
    int n, const NSpeeds& speeds,
    const std::function<void(FamilyCandidate&&)>& emit) const {
  const int procs = speeds.owners();
  if (procs < 3) return;  // q=2 strips belong to the canonical family.
  for (const NLayeredSpec& spec : allNLayeredSpecs(procs)) {
    std::optional<Partition> q = makeLayeredPartition(n, speeds, spec);
    if (!q) continue;
    FamilyCandidate c;
    c.family = FamilyId::kLayered;
    c.name = layeredSpecName(spec);
    c.partition = *std::move(q);
    emit(std::move(c));
  }
}

}  // namespace pushpart
