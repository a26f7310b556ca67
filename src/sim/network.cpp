#include "sim/network.hpp"

#include <algorithm>

namespace pushpart {

double Network::bookHop(Proc sender, std::int64_t elements, double readyAt) {
  const double start = faults_.stallClearedAt(
      sender, std::max(readyAt, nicFreeAt_[procSlot(sender)]));
  const double duration =
      machine_.alphaSeconds * faults_.alphaFactorAt(start) +
      machine_.sendElementSeconds * faults_.betaFactorAt(start) *
          static_cast<double>(elements);
  const double done = start + duration;
  nicFreeAt_[procSlot(sender)] = done;
  ++stats_.messagesSent;
  stats_.elementsMoved += elements;
  stats_.nicBusySeconds[procSlot(sender)] += duration;
  return done;
}

void Network::attemptOnce(const SimMessage& message, double readyAt,
                          std::function<void(bool, double)> onResult) {
  PUSHPART_CHECK(message.from != message.to);
  PUSHPART_CHECK(message.elements >= 0);
  if (message.elements == 0) {
    events_.schedule(std::max(readyAt, events_.now()),
                     [cb = std::move(onResult), t = readyAt] { cb(true, t); });
    return;
  }

  const bool needsRelay = topology_ == Topology::kStar &&
                          message.from != star_.hub && message.to != star_.hub;
  const double firstHopDone = bookHop(message.from, message.elements, readyAt);
  events_.schedule(firstHopDone, [this, message, firstHopDone, needsRelay,
                                  cb = std::move(onResult)]() mutable {
    // Loss draws happen at hop completion so they consume the fault stream
    // in deterministic event order.
    if (faults_.dropHop()) {
      ++stats_.dropsInjected;
      cb(false, firstHopDone);
      return;
    }
    const Proc receiver = needsRelay ? star_.hub : message.to;
    if (!faults_.aliveAt(receiver, firstHopDone)) {
      cb(false, firstHopDone);
      return;
    }
    if (!needsRelay) {
      cb(true, firstHopDone);
      return;
    }
    const double done = bookHop(star_.hub, message.elements, firstHopDone);
    events_.schedule(done, [this, message, done, cb = std::move(cb)] {
      if (faults_.dropHop()) {
        ++stats_.dropsInjected;
        cb(false, done);
        return;
      }
      cb(faults_.aliveAt(message.to, done), done);
    });
  });
}

void Network::runAttempt(SimMessage message, double readyAt,
                         RetryPolicy policy, int attempt,
                         std::function<void(const TransferOutcome&)> onDone) {
  // Endpoint already known dead: the transfer cannot succeed; report the
  // failure without occupying the NIC (the sender's failure detector has
  // marked the peer).
  if (!faults_.aliveAt(message.from, readyAt) ||
      !faults_.aliveAt(message.to, readyAt)) {
    ++stats_.deadEndpointFailures;
    TransferOutcome out{false, readyAt, attempt, true};
    events_.schedule(std::max(readyAt, events_.now()),
                     [cb = std::move(onDone), out] { cb(out); });
    return;
  }
  attemptOnce(message, readyAt,
              [this, message, policy, attempt, cb = std::move(onDone)](
                  bool delivered, double t) mutable {
                if (delivered) {
                  cb(TransferOutcome{true, t, attempt, false});
                  return;
                }
                // The sender learns of the loss only when the ack timeout
                // expires, measured from the end of its transmission.
                const double detectAt = t + policy.timeoutSeconds;
                if (!faults_.aliveAt(message.to, detectAt) ||
                    !faults_.aliveAt(message.from, detectAt)) {
                  ++stats_.deadEndpointFailures;
                  events_.schedule(detectAt, [cb = std::move(cb), detectAt,
                                              attempt] {
                    cb(TransferOutcome{false, detectAt, attempt, true});
                  });
                  return;
                }
                if (attempt >= policy.maxAttempts) {
                  ++stats_.transfersAbandoned;
                  events_.schedule(detectAt, [cb = std::move(cb), detectAt,
                                              attempt] {
                    cb(TransferOutcome{false, detectAt, attempt, false});
                  });
                  return;
                }
                const double backoff =
                    policy.backoffBeforeRetry(attempt, faults_.rng());
                ++stats_.retriesSent;
                events_.schedule(detectAt, [this, message, policy, attempt,
                                            detectAt, backoff,
                                            cb = std::move(cb)]() mutable {
                  runAttempt(message, detectAt + backoff, policy, attempt + 1,
                             std::move(cb));
                });
              });
}

void Network::sendReliable(const SimMessage& message, double readyAt,
                           const RetryPolicy& policy,
                           std::function<void(const TransferOutcome&)> onDone) {
  policy.validate();
  runAttempt(message, readyAt, policy, 1, std::move(onDone));
}

}  // namespace pushpart
