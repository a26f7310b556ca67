#include "grid/serialize.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "grid/builder.hpp"

namespace pushpart {

namespace {

/// Drops the trailing '\r', spaces and tabs a line may carry (CRLF files,
/// editors' trailing blanks).
void trimTrailingBlanks(std::string& line) {
  while (!line.empty() &&
         (line.back() == '\r' || line.back() == ' ' || line.back() == '\t'))
    line.pop_back();
}

}  // namespace

void savePartition(const Partition& q, std::ostream& os) {
  requireThreeOwners(q);
  os << "pushpart-partition v1\n";
  os << "n " << q.n() << '\n';
  os << toAscii(q) << '\n';
}

void savePartition(const Partition& q, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("savePartition: cannot open " + path);
  savePartition(q, out);
}

Partition loadPartition(std::istream& is) {
  std::string magic;
  std::getline(is, magic);
  if (magic != "pushpart-partition v1")
    throw std::runtime_error("loadPartition: bad magic '" + magic + "'");
  std::string nline;
  std::getline(is, nline);
  std::istringstream nparse(nline);
  std::string key;
  long long n = 0;
  if (!(nparse >> key >> n) || key != "n")
    throw std::runtime_error("loadPartition: bad size line '" + nline + "'");
  std::string trailing;
  if (nparse >> trailing)
    throw std::runtime_error("loadPartition: trailing junk '" + trailing +
                             "' in size line '" + nline + "'");
  // The line must read as savePartition writes it, "n <N>" with one space
  // and plain digits, up to trailing whitespace: "n  5" or "n 05" would
  // load the same grid under a header no save produces.
  std::string spelled = nline;
  trimTrailingBlanks(spelled);
  if (spelled != "n " + std::to_string(n))
    throw std::runtime_error("loadPartition: bad size line '" + nline + "'");
  if (n <= 0)
    throw std::runtime_error("loadPartition: n must be positive, got " +
                             std::to_string(n));
  // A malformed or hostile header must not drive an O(n²) allocation:
  // 16384² cells (256M) is already far beyond any realistic partition file.
  constexpr long long kMaxN = 16384;
  if (n > kMaxN)
    throw std::runtime_error("loadPartition: n " + std::to_string(n) +
                             " exceeds the supported maximum " +
                             std::to_string(kMaxN));
  std::string art, line;
  for (long long i = 0; i < n; ++i) {
    if (!std::getline(is, line))
      throw std::runtime_error("loadPartition: truncated grid (got " +
                               std::to_string(i) + " of " + std::to_string(n) +
                               " rows)");
    trimTrailingBlanks(line);
    if (static_cast<long long>(line.size()) != n)
      throw std::runtime_error(
          "loadPartition: row " + std::to_string(i) + " has " +
          std::to_string(line.size()) + " cells, expected " +
          std::to_string(n));
    for (std::size_t j = 0; j < line.size(); ++j) {
      const char c = line[j];
      if (c != 'P' && c != 'R' && c != 'S')
        throw std::runtime_error(
            "loadPartition: invalid cell '" + std::string(1, c) + "' at row " +
            std::to_string(i) + ", column " + std::to_string(j) +
            " (expected P, R or S)");
    }
    art += line;
    art += '\n';
  }
  Partition q = fromAscii(art);
  if (q.n() != n)
    throw std::runtime_error("loadPartition: grid size disagrees with header");
  return q;
}

Partition loadPartition(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("loadPartition: cannot open " + path);
  return loadPartition(in);
}

}  // namespace pushpart
