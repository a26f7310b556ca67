#include "shapes/archetype.hpp"

#include <sstream>

#include "shapes/corners.hpp"

namespace pushpart {

std::string ArchetypeInfo::str() const {
  std::ostringstream os;
  os << "archetype=" << archetypeName(archetype)
     << " overlap=" << (rectsOverlap ? "yes" : "no")
     << " surround=" << (surround ? "yes" : "no") << " R(rect="
     << (rRectangular ? "yes" : "no") << ", corners=" << rCorners
     << ", components=" << rComponents << ")"
     << " S(rect=" << (sRectangular ? "yes" : "no") << ", corners=" << sCorners
     << ", components=" << sComponents << ")";
  return os.str();
}

ArchetypeInfo classifyArchetype(const Partition& q) {
  requireThreeOwners(q);
  ArchetypeInfo info;
  if (q.count(Proc::R) == 0 || q.count(Proc::S) == 0) return info;

  const Rect rRect = q.enclosingRect(Proc::R);
  const Rect sRect = q.enclosingRect(Proc::S);
  info.rectsOverlap = rRect.overlaps(sRect);
  info.surround = rRect.contains(sRect) || sRect.contains(rRect);
  info.rRectangular = isAsymptoticallyRectangular(q, Proc::R);
  info.sRectangular = isAsymptoticallyRectangular(q, Proc::S);
  info.rCorners = cornerCount(q, Proc::R);
  info.sCorners = cornerCount(q, Proc::S);
  info.rComponents = connectedComponents(q, Proc::R);
  info.sComponents = connectedComponents(q, Proc::S);

  if (!info.rectsOverlap) {
    // Archetype A needs both shapes rectangular; disjoint non-rectangles are
    // counterexamples.
    info.archetype = (info.rRectangular && info.sRectangular)
                         ? Archetype::A
                         : Archetype::Unknown;
    return info;
  }

  const int rectangularCount =
      int{info.rRectangular} + int{info.sRectangular};
  if (rectangularCount == 1 && info.rComponents == 1 &&
      info.sComponents == 1) {
    // One rectangle plus one wrapped shape. Enclosing-rectangle containment
    // alone cannot separate B from D: an L notched around the rectangle's
    // corner also contains its box. The paper's distinction is the corner
    // count of the wrapping processor — 6 corners is the Archetype B "L",
    // 8 corners the Archetype D surround.
    const int outerCorners = info.rRectangular ? info.sCorners : info.rCorners;
    info.archetype = (info.surround && outerCorners >= 8) ? Archetype::D
                                                          : Archetype::B;
    return info;
  }
  if (rectangularCount == 0) {
    info.archetype = Archetype::C;
    return info;
  }
  // Both rectangular with overlapping enclosing rectangles: ragged-edge
  // interleavings the idealized taxonomy draws as Archetype A with touching
  // rectangles; treat as A when the *cells* are disjoint rectangles whose
  // enclosing boxes merely brush (possible with asymptotic rectangles).
  info.archetype = Archetype::A;
  return info;
}

}  // namespace pushpart
