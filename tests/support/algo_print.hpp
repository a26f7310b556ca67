// Prints an Algo test parameter by its name ("PCB"), so parameterized
// test names read `.../PCB  # GetParam() = PCB` instead of a byte dump.
#pragma once

#include <ostream>

#include "model/algo.hpp"

namespace pushpart {

inline void PrintTo(Algo algo, std::ostream* os) { *os << algoName(algo); }

}  // namespace pushpart
