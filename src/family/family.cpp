#include "family/family.hpp"

#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "family/hierarchical.hpp"
#include "family/layered.hpp"
#include "shapes/kowner.hpp"

namespace pushpart {

FamilyId familyFromName(const std::string& name) {
  for (const FamilyId f : kAllFamilies)
    if (name == familyName(f)) return f;
  throw std::invalid_argument("unknown candidate family '" + name + "'");
}

FamilySet FamilySet::all() {
  FamilySet s;
  for (const FamilyId f : kAllFamilies) s.insert(f);
  return s;
}

FamilySet FamilySet::canonicalOnly() {
  FamilySet s;
  s.insert(FamilyId::kCanonical);
  return s;
}

FamilySet FamilySet::parse(const std::string& text) {
  if (text == "all") return all();
  FamilySet s;
  std::istringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    s.insert(familyFromName(token));
  }
  if (s.empty())
    throw std::invalid_argument("empty family selection '" + text + "'");
  return s;
}

std::string FamilySet::str() const {
  if (*this == all()) return "all";
  std::string out;
  for (const FamilyId f : kAllFamilies) {
    if (!contains(f)) continue;
    if (!out.empty()) out += ',';
    out += familyName(f);
  }
  return out.empty() ? "none" : out;
}

namespace {

/// Member (1): the paper's six §IX shapes, plus the two-owner prior-work
/// shapes and the four-owner generalizations for enumerateN — so k-owner
/// sweeps and three-owner serving draw from the same registry.
class CanonicalFamily final : public CandidateFamily {
 public:
  FamilyId id() const override { return FamilyId::kCanonical; }
  const char* description() const override {
    return "the paper's six 3-processor shapes (Sec. IX)";
  }

  void enumerate(
      int n, const Ratio& ratio,
      const std::function<void(FamilyCandidate&&)>& emit) const override {
    for (const CandidateShape shape : kAllCandidates) {
      if (!candidateFeasible(shape, n, ratio)) continue;
      FamilyCandidate c;
      c.family = FamilyId::kCanonical;
      c.name = candidateName(shape);
      c.shape = shape;
      c.partition = makeCandidate(shape, n, ratio);
      emit(std::move(c));
    }
  }

  void enumerateN(
      int n, const NSpeeds& speeds,
      const std::function<void(FamilyCandidate&&)>& emit) const override {
    const auto emitNamed = [&](const char* name, Partition q) {
      emit({FamilyId::kCanonical, name, std::nullopt, std::move(q)});
    };
    switch (speeds.owners()) {
      case 2: {
        const double p = speeds.speeds[0] / speeds.speeds[1];
        for (const TwoProcShape shape :
             {TwoProcShape::kStraightLine, TwoProcShape::kSquareCorner,
              TwoProcShape::kRectangleCorner})
          emitNamed(twoProcShapeName(shape), makeTwoProcCandidate(shape, n, p));
        break;
      }
      case 3: {
        // Three owners are the paper's R, S and P: the six shapes as built,
        // emitted like every k-owner member, without a shape.
        const Ratio ratio{speeds.speeds[0], speeds.speeds[1],
                          speeds.speeds[2]};
        if (!ratio.valid()) break;
        enumerate(n, ratio, [&](FamilyCandidate&& c) {
          c.shape.reset();
          emit(std::move(c));
        });
        break;
      }
      case 4:
        for (const FourProcShape shape :
             {FourProcShape::kCornerSquares, FourProcShape::kBlockColumns,
              FourProcShape::kColumnStrips})
          if (fourProcFeasible(shape, n, speeds))
            emitNamed(fourProcShapeName(shape),
                      makeFourProcCandidate(shape, n, speeds));
        break;
      default:
        break;
    }
  }
};

}  // namespace

void FamilyRegistry::add(std::unique_ptr<CandidateFamily> family) {
  families_.push_back(std::move(family));
}

const CandidateFamily* FamilyRegistry::find(FamilyId id) const {
  for (const auto& f : families_)
    if (f->id() == id) return f.get();
  return nullptr;
}

void FamilyRegistry::forEach(
    int n, const Ratio& ratio, FamilySet selection,
    const std::function<void(const FamilyCandidate&)>& fn) const {
  std::unordered_set<std::uint64_t> seen;
  for (const auto& f : families_) {
    if (!selection.contains(f->id())) continue;
    f->enumerate(n, ratio, [&](FamilyCandidate&& c) {
      if (!seen.insert(c.partition.hash()).second) return;
      fn(c);
    });
  }
}

void FamilyRegistry::forEachN(
    int n, const NSpeeds& speeds, FamilySet selection,
    const std::function<void(const FamilyCandidate&)>& fn) const {
  std::unordered_set<std::uint64_t> seen;
  for (const auto& f : families_) {
    if (!selection.contains(f->id())) continue;
    f->enumerateN(n, speeds, [&](FamilyCandidate&& c) {
      if (!seen.insert(c.partition.hash()).second) return;
      fn(c);
    });
  }
}

std::vector<FamilyCandidate> FamilyRegistry::enumerate(
    int n, const Ratio& ratio, FamilySet selection) const {
  std::vector<FamilyCandidate> out;
  forEach(n, ratio, selection,
          [&](const FamilyCandidate& c) { out.push_back(c); });
  return out;
}

std::vector<FamilyCandidate> FamilyRegistry::enumerateN(
    int n, const NSpeeds& speeds, FamilySet selection) const {
  std::vector<FamilyCandidate> out;
  forEachN(n, speeds, selection,
           [&](const FamilyCandidate& c) { out.push_back(c); });
  return out;
}

const FamilyRegistry& builtinFamilies() {
  static const FamilyRegistry* registry = [] {
    auto* r = new FamilyRegistry();
    r->add(std::make_unique<CanonicalFamily>());
    r->add(std::make_unique<LayeredFamily>());
    r->add(std::make_unique<HierarchicalFamily>());
    return r;
  }();
  return *registry;
}

}  // namespace pushpart
