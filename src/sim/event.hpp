// Minimal discrete-event engine.
//
// The cluster simulator (sim/mmm_sim.hpp) models message passing at event
// granularity: NIC bookings, store-and-forward hops and serial send chains
// are all callbacks on this queue. Events at equal timestamps run in
// scheduling order (a monotone sequence number breaks ties), which keeps
// simulations deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "support/check.hpp"

namespace pushpart {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  double now() const { return now_; }

  /// Schedules `cb` at absolute time `time` (must be >= now()).
  void schedule(double time, Callback cb) {
    PUSHPART_CHECK_MSG(time >= now_,
                       "event scheduled in the past: " << time << " < " << now_);
    heap_.push(Event{time, seq_++, std::move(cb)});
  }

  /// Executes the earliest pending event. Returns false when none remain.
  bool step() {
    if (heap_.empty()) return false;
    // Moving out of a priority_queue requires a const_cast; the element is
    // popped immediately after.
    Event ev = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    now_ = ev.time;
    ev.callback();
    return true;
  }

  /// Runs to exhaustion.
  void run() {
    while (step()) {
    }
  }

  std::size_t pending() const { return heap_.size(); }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    Callback callback;
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
};

}  // namespace pushpart
