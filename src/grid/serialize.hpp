// Partition persistence.
//
// The DFA batch runner can dump condensed shapes for offline inspection
// (the paper published its shape outputs at hcl.ucd.ie); this module gives a
// small self-describing text format:
//
//   pushpart-partition v1
//   n <N>
//   <N lines of P/R/S characters>
#pragma once

#include <iosfwd>
#include <string>

#include "grid/partition.hpp"

namespace pushpart {

/// Writes the v1 text format, which holds the paper's three owners only:
/// throws CheckError for any other owner count.
void savePartition(const Partition& q, std::ostream& os);
void savePartition(const Partition& q, const std::string& path);

/// Reads the v1 text format. Throws std::runtime_error on malformed input.
Partition loadPartition(std::istream& is);
Partition loadPartition(const std::string& path);

}  // namespace pushpart
