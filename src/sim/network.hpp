// Sender-bound Hockney network with topology routing and fault injection.
//
// Each node's NIC serializes its outbound messages: a message of M elements
// occupies the sender for α + β·M seconds and is delivered at completion
// (receive side unconstrained — the standard sender-bound Hockney model the
// paper's §II analysis assumes). Under a star topology, spoke↔spoke traffic
// is stored and forwarded at the hub, whose NIC also serializes the
// forwarding load; this is how the simulator exposes costs the closed-form
// models only approximate.
//
// Every network runs a FaultInjector, which can make the cluster imperfect:
// hops can be lost in transit, latency spikes inflate α/β inside time
// windows, stalled NICs delay hop starts, and messages touching a dead
// processor never arrive. sendReliable() layers timeout/retransmit
// semantics (bounded exponential backoff with jitter) on top. Under an
// inert FaultPlan none of that happens: every transfer is delivered on its
// first attempt at the Hockney instant.
#pragma once

#include <array>
#include <functional>

#include "grid/proc.hpp"
#include "model/machine.hpp"
#include "model/topology.hpp"
#include "sim/event.hpp"
#include "sim/fault.hpp"

namespace pushpart {

struct SimMessage {
  Proc from = Proc::P;
  Proc to = Proc::P;
  std::int64_t elements = 0;
};

/// Per-run network statistics. The fault counters stay zero under an inert
/// FaultPlan.
struct NetworkStats {
  std::int64_t messagesSent = 0;   ///< Including forwarding hops and retries.
  std::int64_t elementsMoved = 0;  ///< Element·hops.
  std::array<double, kNumProcs> nicBusySeconds{};
  std::int64_t dropsInjected = 0;       ///< Hops lost in transit.
  std::int64_t retriesSent = 0;         ///< Retransmissions after a timeout.
  std::int64_t transfersAbandoned = 0;  ///< Reliable transfers out of attempts.
  std::int64_t deadEndpointFailures = 0;  ///< Transfers aborted: peer dead.
};

/// Final verdict of one reliable transfer.
struct TransferOutcome {
  bool delivered = false;
  /// Delivery instant, or the instant the sender gave up / detected death.
  double at = 0.0;
  int attempts = 1;
  bool peerDead = false;  ///< Failed because an endpoint died.
};

class Network {
 public:
  /// `faults` must outlive the network; an injector built from the default
  /// FaultPlan is the perfect network.
  Network(EventQueue& events, const Machine& machine, Topology topology,
          StarConfig star, FaultInjector& faults)
      : events_(events),
        machine_(machine),
        topology_(topology),
        star_(star),
        faults_(faults) {}

  /// Reliable transfer with retransmission: queues `message` on the
  /// sender's NIC no earlier than `readyAt`, detects a loss
  /// `policy.timeoutSeconds` after the hop completed, backs off (bounded
  /// exponential with jitter from the fault stream) and retries up to
  /// `policy.maxAttempts` total attempts. `onDone` fires at final delivery
  /// (after the hub hop, if any) or when the sender gives up. Fails fast
  /// with peerDead when an endpoint is dead at (re)send or detection time.
  /// Zero-element messages deliver at `readyAt` without NIC cost.
  void sendReliable(const SimMessage& message, double readyAt,
                    const RetryPolicy& policy,
                    std::function<void(const TransferOutcome&)> onDone);

  const NetworkStats& stats() const { return stats_; }

 private:
  /// Books one hop on `sender`'s NIC starting no earlier than readyAt
  /// (later when the NIC is stalled); returns completion time. Latency
  /// spikes inflate the hop's α/β by their factors at the start instant.
  double bookHop(Proc sender, std::int64_t elements, double readyAt);

  /// One unreliable end-to-end attempt (including the hub hop, if any).
  /// `onResult(delivered, t)` fires at delivery, or at the instant the
  /// message was lost (drop or dead endpoint); `t` is when the last hop
  /// finished transmitting.
  void attemptOnce(const SimMessage& message, double readyAt,
                   std::function<void(bool, double)> onResult);

  void runAttempt(SimMessage message, double readyAt, RetryPolicy policy,
                  int attempt,
                  std::function<void(const TransferOutcome&)> onDone);

  EventQueue& events_;
  Machine machine_;
  Topology topology_;
  StarConfig star_;
  FaultInjector& faults_;
  std::array<double, kNumProcs> nicFreeAt_{};
  NetworkStats stats_;
};

}  // namespace pushpart
