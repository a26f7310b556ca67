#include "grid/builder.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <stdexcept>

#include "support/check.hpp"

namespace pushpart {

namespace {

/// Hands each slow owner of `q` (all cells still the fastest's) its count,
/// in owner-id order.
Partition scatter(Partition q, std::span<const std::int64_t> counts,
                  Rng& rng) {
  const int n = q.n();
  const Proc fastest = q.fastest();
  for (int x = 0; x + 1 < q.owners(); ++x) {
    const Proc owner = procFromIndex(x);
    std::int64_t remaining = counts[procSlot(owner)];
    // Paper §VI-A2: draw random (row, col) pairs; claim the cell if it still
    // belongs to the fastest owner. It always holds the plurality of cells
    // (ratio assumption), so rejection stays cheap; still, fall back to a
    // sweep when the tail of free cells gets sparse enough that rejection
    // would thrash.
    std::int64_t attempts = 0;
    const std::int64_t attemptBudget = 20 * q.cellCount();
    while (remaining > 0 && attempts < attemptBudget) {
      ++attempts;
      const int i = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      const int j = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      if (q.at(i, j) == fastest) {
        q.set(i, j, owner);
        --remaining;
      }
    }
    remaining -= q.claim(Rect{0, n, 0, n}, fastest, owner, remaining);
    PUSHPART_CHECK(remaining == 0);
  }
  return q;
}

}  // namespace

Partition randomPartition(int n, const Ratio& ratio, Rng& rng) {
  return scatter(Partition(n, Proc::P), ratio.elementCounts(n), rng);
}

Partition randomPartition(int n, const NSpeeds& speeds, Rng& rng) {
  return scatter(Partition(n, speeds.owners()), speeds.elementCounts(n), rng);
}

Partition randomClusteredPartition(int n, const Ratio& ratio, Rng& rng) {
  Partition q(n, Proc::P);
  const auto counts = ratio.elementCounts(n);
  for (Proc x : kSlowProcs) {
    std::int64_t remaining = counts[static_cast<std::size_t>(procIndex(x))];
    while (remaining > 0) {
      // Drop a random small rectangle of cells; clip to the grid and to
      // cells still owned by P.
      const int maxSide = std::max(2, n / 4);
      const int h = static_cast<int>(
          1 + rng.below(static_cast<std::uint64_t>(maxSide)));
      const int w = static_cast<int>(
          1 + rng.below(static_cast<std::uint64_t>(maxSide)));
      const int i0 = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      const int j0 = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      remaining -= q.claim(
          Rect{i0, std::min(n, i0 + h), j0, std::min(n, j0 + w)}, Proc::P, x,
          remaining);
    }
  }
  return q;
}

Partition fromAscii(const std::string& art) {
  std::vector<std::string> rows;
  std::istringstream in(art);
  std::string line;
  while (std::getline(in, line)) {
    // Trim surrounding whitespace so raw string literals can be indented.
    const auto b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const auto e = line.find_last_not_of(" \t\r");
    rows.push_back(line.substr(b, e - b + 1));
  }
  if (rows.empty()) throw std::invalid_argument("fromAscii: empty art");
  const int n = static_cast<int>(rows.size());
  for (const auto& r : rows)
    if (static_cast<int>(r.size()) != n)
      throw std::invalid_argument("fromAscii: grid must be square, row '" + r +
                                  "' has length " + std::to_string(r.size()) +
                                  " but there are " + std::to_string(n) +
                                  " rows");
  Partition q(n, Proc::P);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      switch (rows[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
        case 'P': q.set(i, j, Proc::P); break;
        case 'R': q.set(i, j, Proc::R); break;
        case 'S': q.set(i, j, Proc::S); break;
        default:
          throw std::invalid_argument(
              "fromAscii: cell characters must be P, R or S");
      }
    }
  return q;
}

std::string toAscii(const Partition& q) {
  std::string out;
  out.reserve(static_cast<std::size_t>(q.n()) *
              static_cast<std::size_t>(q.n() + 1));
  for (int i = 0; i < q.n(); ++i) {
    for (int j = 0; j < q.n(); ++j) out += procName(q.at(i, j));
    if (i + 1 < q.n()) out += '\n';
  }
  return out;
}

}  // namespace pushpart
