#include "trace.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

namespace perfbench {

int Trace::open(const char* name, std::int64_t op, int parent) {
  const std::int64_t t = now();
  return add(name, t, t, parent, op);
}

void Trace::close(int id) { spans_[static_cast<std::size_t>(id)].endNs = now(); }

int Trace::add(const char* name, std::int64_t startNs, std::int64_t endNs,
               int parent, std::int64_t op) {
  spans_.push_back(Span{name, startNs, endNs, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::int64_t> Trace::selfTimes() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.startNs, p.startNs);
    const std::int64_t hi = std::min(s.endNs, p.endNs);
    if (hi > lo)
      children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t curLo = 0, curHi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= curHi) {
        curHi = std::max(curHi, hi);
        continue;
      }
      if (open) covered += curHi - curLo;
      curLo = lo;
      curHi = hi;
      open = true;
    }
    if (open) covered += curHi - curLo;
    self[i] = std::max<std::int64_t>(0, spans_[i].durationNs() - covered);
  }
  return self;
}

void Trace::write(std::ostream& os) const {
  const std::vector<std::int64_t> self = selfTimes();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"op\":" << s.op
       << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.startNs
       << ",\"end_ns\":" << s.endNs << ",\"self_ns\":" << self[i] << "}\n";
  }
}

}  // namespace perfbench
