#include "sim/network.hpp"

#include <gtest/gtest.h>

namespace pushpart {
namespace {

Machine flatMachine() {
  Machine m;
  m.alphaSeconds = 0.0;
  m.sendElementSeconds = 1.0;  // 1 second per element: easy arithmetic
  m.ratio = Ratio{2, 1, 1};
  return m;
}

/// A network under the default (inert) fault plan: the perfect network.
struct PerfectNet {
  EventQueue events;
  FaultInjector injector{FaultPlan{}};
  Network net;

  explicit PerfectNet(const Machine& m,
                      Topology topology = Topology::kFullyConnected,
                      StarConfig star = {})
      : net(events, m, topology, star, injector) {}

  /// Sends reliably and stores the delivery instant in `delivered`; with
  /// nothing to lose, every transfer must land on its first attempt.
  void send(const SimMessage& message, double readyAt, double& delivered) {
    net.sendReliable(message, readyAt, RetryPolicy{},
                     [&delivered](const TransferOutcome& out) {
                       EXPECT_TRUE(out.delivered);
                       EXPECT_EQ(out.attempts, 1);
                       delivered = out.at;
                     });
  }
};

TEST(NetworkTest, DirectSendTakesHockneyTime) {
  Machine m = flatMachine();
  m.alphaSeconds = 2.0;
  PerfectNet p(m);
  double delivered = -1;
  p.send({Proc::R, Proc::P, 10}, 0.0, delivered);
  p.events.run();
  EXPECT_DOUBLE_EQ(delivered, 12.0);  // α + β·M = 2 + 10
}

TEST(NetworkTest, NicSerializesSends) {
  PerfectNet p(flatMachine());
  double d1 = -1, d2 = -1;
  p.send({Proc::R, Proc::P, 5}, 0.0, d1);
  p.send({Proc::R, Proc::S, 5}, 0.0, d2);
  p.events.run();
  EXPECT_DOUBLE_EQ(d1, 5.0);
  EXPECT_DOUBLE_EQ(d2, 10.0);  // second send waits for the NIC
}

TEST(NetworkTest, DifferentSendersProceedInParallel) {
  PerfectNet p(flatMachine());
  double d1 = -1, d2 = -1;
  p.send({Proc::R, Proc::P, 5}, 0.0, d1);
  p.send({Proc::S, Proc::P, 5}, 0.0, d2);
  p.events.run();
  EXPECT_DOUBLE_EQ(d1, 5.0);
  EXPECT_DOUBLE_EQ(d2, 5.0);
}

TEST(NetworkTest, StarRelaysThroughHub) {
  PerfectNet p(flatMachine(), Topology::kStar, StarConfig{Proc::P});
  double delivered = -1;
  p.send({Proc::R, Proc::S, 4}, 0.0, delivered);
  p.events.run();
  EXPECT_DOUBLE_EQ(delivered, 8.0);  // two hops of 4 elements
  EXPECT_EQ(p.net.stats().messagesSent, 2);
  EXPECT_EQ(p.net.stats().elementsMoved, 8);
}

TEST(NetworkTest, StarHubTrafficIsDirect) {
  PerfectNet p(flatMachine(), Topology::kStar, StarConfig{Proc::P});
  double delivered = -1;
  p.send({Proc::R, Proc::P, 4}, 0.0, delivered);
  p.events.run();
  EXPECT_DOUBLE_EQ(delivered, 4.0);
  EXPECT_EQ(p.net.stats().messagesSent, 1);
}

TEST(NetworkTest, HubForwardingContendsWithItsOwnSends) {
  PerfectNet p(flatMachine(), Topology::kStar, StarConfig{Proc::P});
  double spokeDelivered = -1, hubDelivered = -1;
  // Spoke-to-spoke message arrives at the hub at t=4, but the hub's NIC is
  // busy with its own 10-element send until t=10.
  p.send({Proc::P, Proc::R, 10}, 0.0, hubDelivered);
  p.send({Proc::R, Proc::S, 4}, 0.0, spokeDelivered);
  p.events.run();
  EXPECT_DOUBLE_EQ(hubDelivered, 10.0);
  EXPECT_DOUBLE_EQ(spokeDelivered, 14.0);  // forward waits for the hub NIC
}

TEST(NetworkTest, ZeroElementMessageDeliversInstantly) {
  PerfectNet p(flatMachine());
  double delivered = -1;
  p.send({Proc::R, Proc::P, 0}, 3.0, delivered);
  p.events.run();
  EXPECT_DOUBLE_EQ(delivered, 3.0);
  EXPECT_EQ(p.net.stats().messagesSent, 0);
}

TEST(NetworkTest, ReadyAtDefersBooking) {
  PerfectNet p(flatMachine());
  double delivered = -1;
  p.send({Proc::R, Proc::P, 5}, 7.0, delivered);
  p.events.run();
  EXPECT_DOUBLE_EQ(delivered, 12.0);
}

TEST(NetworkTest, SelfSendRejected) {
  PerfectNet p(flatMachine());
  double delivered = -1;
  EXPECT_THROW(p.send({Proc::R, Proc::R, 5}, 0.0, delivered), CheckError);
}

TEST(NetworkTest, BusySecondsTracked) {
  PerfectNet p(flatMachine());
  double d1 = -1, d2 = -1;
  p.send({Proc::R, Proc::P, 5}, 0.0, d1);
  p.send({Proc::R, Proc::S, 3}, 0.0, d2);
  p.events.run();
  EXPECT_DOUBLE_EQ(p.net.stats().nicBusySeconds[procSlot(Proc::R)], 8.0);
  EXPECT_DOUBLE_EQ(p.net.stats().nicBusySeconds[procSlot(Proc::P)], 0.0);
}

}  // namespace
}  // namespace pushpart
