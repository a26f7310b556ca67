// Partition instantiation of the state-generic DFA walk (runDfaT in
// dfa.hpp); dfa/batch instantiates the same template on BitPartition.
#include "dfa/dfa.hpp"

namespace pushpart {

DfaResult runDfa(Partition q0, const Schedule& schedule,
                 const DfaOptions& options) {
  return runDfaT(std::move(q0), schedule, options);
}

}  // namespace pushpart
