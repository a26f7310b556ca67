// Machine model: heterogeneous processor speeds plus a Hockney network.
//
// The paper models communication with the linear Hockney model
// T_comm = α + β·M (§II) and computation with relative speeds P_r:R_r:S_r.
// A Machine collects the absolute constants so the five algorithm models
// (model/models.hpp) and the discrete-event simulator (sim/) can turn
// element counts into seconds. Fig. 14's setting — N = 5000 doubles on a
// 1000 MB/s network — is the default.
#pragma once

#include <cstdint>

#include "grid/proc.hpp"
#include "grid/ratio.hpp"

namespace pushpart {

struct Machine {
  /// Per-message latency α in seconds (Hockney). The paper's analysis uses
  /// the asymptotic bandwidth term; latency defaults to zero and can be set
  /// for the simulator's finer-grained runs.
  double alphaSeconds = 0.0;

  /// Seconds to move one matrix element (Hockney β times element size).
  /// Default: 8-byte doubles over 1000 MB/s = 8e-9 s/element (Fig. 14).
  double sendElementSeconds = 8.0e-9;

  /// Seconds for the *slowest* processor (S, speed 1) to execute one
  /// multiply-accumulate of the kij loop. Faster processors divide by their
  /// relative speed. Default ≈ 1 Gflop/s of MACs for the baseline node.
  double baseFlopSeconds = 1.0e-9;

  /// Relative processor speeds.
  Ratio ratio{2, 1, 1};

  /// Seconds for processor x to perform `macs` multiply-accumulates.
  double computeSeconds(Proc x, std::int64_t macs) const {
    return baseFlopSeconds * static_cast<double>(macs) / ratio.speed(x);
  }
};

}  // namespace pushpart
