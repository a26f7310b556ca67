// Partition and BitPartition instantiations of the state-generic beautify
// pass (push/engine.hpp).
#include "push/beautify.hpp"

#include "push/engine.hpp"

namespace pushpart {

bool compactRegion(Partition& q, Proc x) { return compactRegionState(q, x); }

BeautifyResult beautify(Partition& q) { return beautifyState(q); }

bool fullyCondensed(const Partition& q) { return fullyCondensedState(q); }

bool compactRegion(BitPartition& q, Proc x) { return compactRegionState(q, x); }

BeautifyResult beautify(BitPartition& q) { return beautifyState(q); }

bool fullyCondensed(const BitPartition& q) { return fullyCondensedState(q); }

}  // namespace pushpart
