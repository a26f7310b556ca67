#include "grid/ratio.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "support/check.hpp"
#include "support/csv.hpp"

namespace pushpart {

double Ratio::speed(Proc x) const {
  switch (x) {
    case Proc::P: return p;
    case Proc::R: return r;
    case Proc::S: return s;
  }
  return 0.0;
}

namespace {

/// ⌊n²·speed/total⌋ as a count, or −1 when the share is not finite or lies
/// outside [0, n²], where the cast to int64 would be undefined.
std::int64_t flooredShare(std::int64_t n2, double speed, double total) {
  const double share = std::floor(static_cast<double>(n2) * speed / total);
  if (!(std::isfinite(share) && share >= 0 &&
        share <= static_cast<double>(n2)))
    return -1;
  return static_cast<std::int64_t>(share);
}

[[noreturn]] void sharesOverflow(const std::string& speeds, int n) {
  throw std::invalid_argument("speeds " + speeds + " give no element count " +
                              "in [0, n^2] at n=" + std::to_string(n));
}

/// Parses one speed at `cur`, advancing it; throws std::invalid_argument
/// unless the speed is finite and positive.
double parseSpeed(const char*& cur, const std::string& text,
                  const char* who) {
  char* end = nullptr;
  const double v = std::strtod(cur, &end);
  if (end == cur)
    throw std::invalid_argument(std::string(who) + ": bad speed in '" + text +
                                "'");
  if (!(std::isfinite(v) && v > 0))
    throw std::invalid_argument(std::string(who) +
                                ": speeds must be finite and positive in '" +
                                text + "'");
  cur = end;
  return v;
}

}  // namespace

std::array<std::int64_t, kNumProcs> Ratio::elementCounts(int n) const {
  PUSHPART_CHECK(n > 0);
  PUSHPART_CHECK_MSG(valid(), "invalid ratio " << str());
  const double t = total();
  const auto n2 = static_cast<std::int64_t>(n) * n;
  // Floor (not round-to-nearest) so eP = n² − eR − eS ≥ n²·p/t ≥ eR, eS even
  // when P ties R in speed: the assumption "P holds the largest share" then
  // survives integer rounding.
  const auto eR = flooredShare(n2, r, t);
  const auto eS = flooredShare(n2, s, t);
  if (eR < 0 || eS < 0) sharesOverflow(str(), n);
  const auto eP = n2 - eR - eS;
  PUSHPART_CHECK_MSG(eP >= 0 && eR >= 0 && eS >= 0,
                     "element counts underflow for ratio " << str() << ", n="
                                                           << n);
  std::array<std::int64_t, kNumProcs> out{};
  out[procIndex(Proc::R)] = eR;
  out[procIndex(Proc::S)] = eS;
  out[procIndex(Proc::P)] = eP;
  return out;
}

Ratio Ratio::normalized() const {
  PUSHPART_CHECK(s > 0);
  return Ratio{p / s, r / s, 1.0};
}

bool Ratio::valid() const {
  return p > 0 && r > 0 && s > 0 && p >= r && p >= s;
}

Ratio Ratio::parse(const std::string& text) {
  Ratio out;
  double* slots[3] = {&out.p, &out.r, &out.s};
  const char* cur = text.c_str();
  for (int i = 0; i < 3; ++i) {
    *slots[i] = parseSpeed(cur, text, "Ratio::parse");
    if (i < 2) {
      if (*cur != ':')
        throw std::invalid_argument("Ratio::parse: expected ':' in '" + text +
                                    "'");
      ++cur;
    }
  }
  if (*cur != '\0')
    throw std::invalid_argument("Ratio::parse: trailing junk in '" + text +
                                "'");
  return out;
}

std::string Ratio::str() const {
  return formatNumber(p) + ":" + formatNumber(r) + ":" + formatNumber(s);
}

const std::array<Ratio, 11>& paperRatios() {
  static const std::array<Ratio, 11> ratios = {
      Ratio{2, 1, 1}, Ratio{3, 1, 1}, Ratio{4, 1, 1},  Ratio{5, 1, 1},
      Ratio{10, 1, 1}, Ratio{2, 2, 1}, Ratio{3, 2, 1}, Ratio{4, 2, 1},
      Ratio{5, 2, 1}, Ratio{5, 3, 1}, Ratio{5, 4, 1}};
  return ratios;
}

double NSpeeds::total() const {
  double t = 0;
  for (double v : speeds) t += v;
  return t;
}

bool NSpeeds::valid() const {
  if (speeds.size() < 2) return false;
  for (double v : speeds)
    if (!(v > 0) || v > speeds[0]) return false;
  return true;
}

std::vector<std::int64_t> NSpeeds::elementCounts(int n) const {
  PUSHPART_CHECK(n > 0);
  PUSHPART_CHECK_MSG(valid(), "invalid speed vector " << str());
  const int k = owners();
  const double t = total();
  const auto n2 = static_cast<std::int64_t>(n) * n;
  std::vector<std::int64_t> counts(speeds.size(), 0);
  std::int64_t assigned = 0;
  for (int rank = 1; rank < k; ++rank) {
    const std::int64_t share =
        flooredShare(n2, speeds[static_cast<std::size_t>(rank)], t);
    if (share < 0) sharesOverflow(str(), n);
    counts[procSlot(ownerOfRank(rank, k))] = share;
    assigned += share;
  }
  counts[procSlot(ownerOfRank(0, k))] = n2 - assigned;
  PUSHPART_CHECK(counts[procSlot(ownerOfRank(0, k))] >= 0);
  return counts;
}

NSpeeds NSpeeds::parse(const std::string& text) {
  NSpeeds out;
  const char* cur = text.c_str();
  while (true) {
    out.speeds.push_back(parseSpeed(cur, text, "NSpeeds::parse"));
    if (*cur == '\0') break;
    if (*cur != ':')
      throw std::invalid_argument("NSpeeds::parse: expected ':' in '" + text +
                                  "'");
    ++cur;
  }
  if (out.speeds.size() < 2)
    throw std::invalid_argument("NSpeeds::parse: need at least two speeds");
  return out;
}

std::string NSpeeds::str() const {
  std::string s;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    if (i) s += ':';
    s += formatNumber(speeds[i]);
  }
  return s;
}

}  // namespace pushpart
