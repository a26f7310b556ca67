#include "family/family.hpp"

#include <cstdint>
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

/// The canonical family: the paper's six shapes over a Ratio. Over NSpeeds,
/// the two-owner prior-work shapes, the six shapes at three owners (without
/// `shape`) and the four-owner generalizations. Infeasible members are
/// skipped.
void canonicalCandidates(int n, const Ratio& ratio, const FamilyEmit& emit) {
  for (const CandidateShape shape : kAllCandidates)
    if (candidateFeasible(shape, n, ratio))
      emit({FamilyId::kCanonical, candidateName(shape), shape,
            makeCandidate(shape, n, ratio)});
}

void canonicalCandidates(int n, const NSpeeds& speeds,
                         const FamilyEmit& emit) {
  const auto emitNamed = [&](const char* name, Partition q) {
    emit({FamilyId::kCanonical, name, std::nullopt, std::move(q)});
  };
  switch (speeds.owners()) {
    case 2: {
      const double p = speeds.speeds[0] / speeds.speeds[1];
      if (!twoProcFeasible(n, p)) break;
      for (const TwoProcShape shape :
           {TwoProcShape::kStraightLine, TwoProcShape::kSquareCorner,
            TwoProcShape::kRectangleCorner})
        emitNamed(twoProcShapeName(shape), makeTwoProcCandidate(shape, n, p));
      break;
    }
    case 3: {
      // Three owners are the paper's R, S and P: the six shapes as built,
      // emitted like every k-owner member, without a shape.
      const Ratio ratio{speeds.speeds[0], speeds.speeds[1], speeds.speeds[2]};
      if (!ratio.valid()) break;
      canonicalCandidates(n, ratio, [&](FamilyCandidate&& c) {
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

/// The one dedup loop behind both forEachFamilyCandidate overloads: each
/// selected family's enumerator in id order, a partition hash emitted once.
template <typename Speeds>
void forEachSelected(int n, const Speeds& speeds, FamilySet selection,
                     const std::function<void(const FamilyCandidate&)>& fn) {
  using Enumerator = void (*)(int, const Speeds&, const FamilyEmit&);
  constexpr std::array<Enumerator, kNumFamilies> kEnumerators = {
      canonicalCandidates, layeredCandidates, hierarchicalCandidates};
  std::unordered_set<std::uint64_t> seen;
  const FamilyEmit emit = [&](FamilyCandidate&& c) {
    if (seen.insert(c.partition.hash()).second) fn(c);
  };
  for (const FamilyId f : kAllFamilies)
    if (selection.contains(f))
      kEnumerators[static_cast<std::size_t>(f)](n, speeds, emit);
}

}  // namespace

void forEachFamilyCandidate(
    int n, const Ratio& ratio, FamilySet selection,
    const std::function<void(const FamilyCandidate&)>& fn) {
  forEachSelected(n, ratio, selection, fn);
}

void forEachFamilyCandidate(
    int n, const NSpeeds& speeds, FamilySet selection,
    const std::function<void(const FamilyCandidate&)>& fn) {
  forEachSelected(n, speeds, selection, fn);
}

}  // namespace pushpart
