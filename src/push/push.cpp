// Partition and BitPartition instantiations of the state-generic push engine
// (push/engine.hpp). The legality ladder and the edge-clean scan live there
// as templates; these wrappers are the typed API.
#include "push/push.hpp"

#include "push/engine.hpp"

namespace pushpart {

PushOutcome tryPush(Partition& q, Proc active, Direction dir,
                    const PushOptions& options) {
  return tryPushState(q, active, dir, options);
}

bool pushAvailable(const Partition& q, Proc active,
                   std::span<const Direction> dirs,
                   const PushOptions& options) {
  return pushAvailableState(q, active, dirs, options);
}

PushOutcome tryPush(BitPartition& q, Proc active, Direction dir,
                    const PushOptions& options) {
  return tryPushState(q, active, dir, options);
}

bool pushAvailable(const BitPartition& q, Proc active,
                   std::span<const Direction> dirs,
                   const PushOptions& options) {
  return pushAvailableState(q, active, dirs, options);
}

}  // namespace pushpart
