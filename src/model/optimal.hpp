// Optimal-shape selection across the six candidates (paper §X methodology).
//
// For a given ratio, algorithm, topology and machine, rank every feasible
// canonical candidate by its modeled execution time. This is the analysis
// the paper defers to future work; the library provides it as the natural
// downstream API ("which partition should I use on this machine?").
#pragma once

#include <optional>
#include <vector>

#include "model/models.hpp"
#include "shapes/candidates.hpp"

namespace pushpart {

struct RankedCandidate {
  CandidateShape shape;
  ModelResult model;
  std::int64_t voc = 0;  ///< Exact (integer-granularity) Volume of Communication.
};

/// All feasible candidates at integer granularity n, ranked by modeled
/// execution time (ascending — best first). machine.ratio supplies the
/// processor speeds and must match the shapes being compared. Each shape is
/// modeled from its candidateLines — the painted grid's exact counters, in
/// at most nine runs per axis — in time that does not grow with n, apart
/// from PIO's one add per pivot. n above kMaxModelN fails a PUSHPART_CHECK.
std::vector<RankedCandidate> rankCandidates(
    Algo algo, int n, const Machine& machine,
    Topology topology = Topology::kFullyConnected, StarConfig star = {});

/// Convenience: the winner of rankCandidates. Throws std::runtime_error when
/// no candidate is feasible (degenerate n).
RankedCandidate selectOptimal(Algo algo, int n, const Machine& machine,
                              Topology topology = Topology::kFullyConnected,
                              StarConfig star = {});

/// Re-costs one specific shape at exact request parameters without ranking
/// the whole field — what the atlas certificate uses to check a precomputed
/// winner against the ratio actually asked for. Returns nullopt when the
/// shape is infeasible there.
std::optional<RankedCandidate> rankOne(
    CandidateShape shape, Algo algo, int n, const Machine& machine,
    Topology topology = Topology::kFullyConnected, StarConfig star = {});

}  // namespace pushpart
