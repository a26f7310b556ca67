// Coarse ASCII rendering of partitions (paper Fig. 7 style).
//
// The paper visualises a 1000×1000 partition at 1/100 granularity: each
// displayed box covers a 100×100 block and is coloured by the majority owner.
// renderAscii does the same with characters: P → '.', R → 'r', S → 'S'. A
// partition over k ≠ 3 owners shows its fastest owner as '.' and slow owner
// id x as the x-th character of "0123456789A…Za…z#".
#pragma once

#include <string>

#include "grid/partition.hpp"

namespace pushpart {

/// Renders `q` as at most maxCells×maxCells characters, each showing the
/// majority owner of its block (ties go to the lower owner id). When
/// n <= maxCells the rendering is exact (one character per cell).
std::string renderAscii(const Partition& q, int maxCells = 50);

/// One-line stats header: "n=… VoC=… R:… S:… P:…" for trace logs (owner ids
/// in place of the letters when k ≠ 3).
std::string summaryLine(const Partition& q);

}  // namespace pushpart
