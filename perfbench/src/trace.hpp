// In-memory span recorder for the traced run.
//
// The benchmark records one span around each public library call it makes,
// plus spans derived from the oracle's hooks (the cold solve and the gaps
// between tier-B walks). Spans stay in memory until the run ends; a layer's
// self time is its span minus the part of that interval its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t startNs = 0;  ///< Since the trace epoch.
  std::int64_t endNs = 0;
  int parent = -1;           ///< Index of the enclosing span, -1 for a root.
  std::int64_t op = -1;      ///< Op id shared by every span of one op.

  std::int64_t durationNs() const { return endNs - startNs; }
};

class Trace {
 public:
  Trace() : epoch_(Clock::now()) {}

  /// Nanoseconds since the trace epoch.
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  /// Opens a span starting now and returns its id.
  int open(const char* name, std::int64_t op, int parent = -1);
  /// Closes span `id` now.
  void close(int id);
  /// Records a span whose bounds were measured elsewhere.
  int add(const char* name, std::int64_t startNs, std::int64_t endNs,
          int parent, std::int64_t op);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

  /// Self time of every span, indexed like spans(): its duration minus the
  /// union of its children's intervals clipped to it. Never negative.
  std::vector<std::int64_t> selfTimes() const;

  /// One JSON object per line: id, name, op, parent, start, end, self (ns).
  void write(std::ostream& os) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null trace
/// records nothing, so untraced code paths share the traced ones.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, std::int64_t op, int parent = -1)
      : trace_(trace), id_(trace ? trace->open(name, op, parent) : -1) {}
  ~ScopedSpan() {
    if (trace_) trace_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Trace* trace_;
  int id_;
};

}  // namespace perfbench
