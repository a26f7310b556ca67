#include "grid/render.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "support/check.hpp"

namespace pushpart {

namespace {

char glyph(const Partition& q, Proc p) {
  if (p == q.fastest()) return '.';
  if (q.owners() == kNumProcs) return p == Proc::R ? 'r' : 'S';
  static constexpr char kSlow[] =
      "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz#";
  return kSlow[procSlot(p)];
}

}  // namespace

std::string renderAscii(const Partition& q, int maxCells) {
  PUSHPART_CHECK(maxCells > 0);
  const int n = q.n();
  const int blocks = std::min(n, maxCells);
  std::string out;
  out.reserve(static_cast<std::size_t>(blocks) *
              static_cast<std::size_t>(blocks + 1));
  for (int bi = 0; bi < blocks; ++bi) {
    const int i0 = bi * n / blocks;
    const int i1 = (bi + 1) * n / blocks;
    for (int bj = 0; bj < blocks; ++bj) {
      const int j0 = bj * n / blocks;
      const int j1 = (bj + 1) * n / blocks;
      std::array<std::int64_t, kMaxOwners> tally{};
      for (int i = i0; i < i1; ++i)
        for (int j = j0; j < j1; ++j) ++tally[procSlot(q.at(i, j))];
      Proc best = q.fastest();
      std::int64_t bestCount = -1;
      for (int x = 0; x < q.owners(); ++x) {
        const auto c = tally[static_cast<std::size_t>(x)];
        if (c > bestCount) {
          bestCount = c;
          best = procFromIndex(x);
        }
      }
      out += glyph(q, best);
    }
    out += '\n';
  }
  return out;
}

std::string summaryLine(const Partition& q) {
  std::ostringstream os;
  os << "n=" << q.n() << " VoC=" << q.volumeOfCommunication();
  for (int x = 0; x < q.owners(); ++x) {
    const Proc p = procFromIndex(x);
    os << ' ';
    if (q.owners() == kNumProcs)
      os << procName(p);
    else
      os << x;
    os << ":" << q.count(p) << " (rows " << q.rowsUsed(p) << ", cols "
       << q.colsUsed(p) << ")";
  }
  return os.str();
}

}  // namespace pushpart
