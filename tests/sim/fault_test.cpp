#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "grid/builder.hpp"
#include "sim/mmm_sim.hpp"
#include "sim/network.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, DefaultPlanIsInert) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.validate();  // must not throw
}

TEST(FaultPlanTest, AnyFaultEnablesThePlan) {
  FaultPlan drops;
  drops.dropProbability = 0.1;
  EXPECT_TRUE(drops.enabled());

  FaultPlan spiked;
  spiked.spikes.push_back({0.0, 1.0, 2.0, 2.0});
  EXPECT_TRUE(spiked.enabled());

  FaultPlan stalled;
  stalled.stalls.push_back({Proc::R, 0.0, 1.0});
  EXPECT_TRUE(stalled.enabled());

  FaultPlan lethal;
  lethal.death = ProcDeath{Proc::P, 1.0};
  EXPECT_TRUE(lethal.enabled());
}

TEST(FaultPlanTest, ValidationRejectsBadValues) {
  FaultPlan plan;
  plan.dropProbability = 1.5;
  EXPECT_THROW(plan.validate(), CheckError);
  plan.dropProbability = -0.1;
  EXPECT_THROW(plan.validate(), CheckError);

  plan = FaultPlan{};
  plan.spikes.push_back({2.0, 1.0, 2.0, 2.0});  // inverted window
  EXPECT_THROW(plan.validate(), CheckError);
  plan.spikes.back() = {0.0, 1.0, 0.0, 1.0};  // non-positive factor
  EXPECT_THROW(plan.validate(), CheckError);

  plan = FaultPlan{};
  plan.stalls.push_back({Proc::R, -1.0, 1.0});
  EXPECT_THROW(plan.validate(), CheckError);

  plan = FaultPlan{};
  plan.death = ProcDeath{Proc::S, -0.5};
  EXPECT_THROW(plan.validate(), CheckError);
}

TEST(RetryPolicyTest, ValidationRejectsBadValues) {
  RetryPolicy policy;
  policy.maxAttempts = 0;
  EXPECT_THROW(policy.validate(), CheckError);

  policy = RetryPolicy{};
  policy.timeoutSeconds = 0.0;
  EXPECT_THROW(policy.validate(), CheckError);

  policy = RetryPolicy{};
  policy.backoffFactor = 0.5;
  EXPECT_THROW(policy.validate(), CheckError);

  policy = RetryPolicy{};
  policy.jitterFraction = 1.0;
  EXPECT_THROW(policy.validate(), CheckError);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndIsBounded) {
  RetryPolicy policy;
  policy.backoffSeconds = 1e-4;
  policy.backoffFactor = 2.0;
  policy.backoffMaxSeconds = 4e-4;
  policy.jitterFraction = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(policy.backoffBeforeRetry(1, rng), 1e-4);
  EXPECT_DOUBLE_EQ(policy.backoffBeforeRetry(2, rng), 2e-4);
  EXPECT_DOUBLE_EQ(policy.backoffBeforeRetry(3, rng), 4e-4);
  EXPECT_DOUBLE_EQ(policy.backoffBeforeRetry(10, rng), 4e-4);  // capped
  EXPECT_THROW(policy.backoffBeforeRetry(0, rng), CheckError);
}

TEST(RetryPolicyTest, JitterIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.jitterFraction = 0.25;
  Rng a(9), b(9);
  for (int r = 1; r <= 6; ++r) {
    const double da = policy.backoffBeforeRetry(r, a);
    const double db = policy.backoffBeforeRetry(r, b);
    EXPECT_DOUBLE_EQ(da, db);
    const double nominal =
        std::min(policy.backoffSeconds * std::pow(policy.backoffFactor, r - 1),
                 policy.backoffMaxSeconds);
    EXPECT_GE(da, nominal * 0.75);
    EXPECT_LE(da, nominal * 1.25);
  }
}

// The jitter draw is taken whatever the knobs say, so the fault stream's
// position depends only on how many retries were scheduled: a policy with
// jitter off leaves the stream where a jittered one does.
TEST(RetryPolicyTest, ZeroJitterStillConsumesOneDrawPerRetry) {
  RetryPolicy flat;
  flat.jitterFraction = 0.0;
  RetryPolicy jittered;
  jittered.jitterFraction = 0.3;
  Rng a(4), b(4);
  for (int r = 1; r <= 5; ++r) {
    const double nominal =
        std::min(flat.backoffSeconds * std::pow(flat.backoffFactor, r - 1),
                 flat.backoffMaxSeconds);
    EXPECT_DOUBLE_EQ(flat.backoffBeforeRetry(r, a), nominal);
    (void)jittered.backoffBeforeRetry(r, b);
    EXPECT_EQ(a(), b()) << "after retry " << r;
  }
}

// Jitter scales the capped delay, so past the ceiling the draws straddle
// backoffMaxSeconds within ±jitterFraction of it.
TEST(RetryPolicyTest, JitterScalesTheCappedDelay) {
  RetryPolicy policy;
  policy.backoffSeconds = 1e-4;
  policy.backoffMaxSeconds = 1e-3;
  policy.jitterFraction = 0.2;
  int above = 0;
  int below = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    const double d = policy.backoffBeforeRetry(12, rng);  // 1e-4 · 2^11 > cap
    EXPECT_GE(d, policy.backoffMaxSeconds * 0.8);
    EXPECT_LE(d, policy.backoffMaxSeconds * 1.2);
    above += d > policy.backoffMaxSeconds ? 1 : 0;
    below += d < policy.backoffMaxSeconds ? 1 : 0;
  }
  EXPECT_GT(above, 0);
  EXPECT_GT(below, 0);
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjectorTest, DeathSemantics) {
  FaultPlan plan;
  plan.death = ProcDeath{Proc::R, 5.0};
  FaultInjector injector(plan);
  EXPECT_TRUE(injector.aliveAt(Proc::R, 4.999));
  EXPECT_FALSE(injector.aliveAt(Proc::R, 5.0));
  EXPECT_FALSE(injector.aliveAt(Proc::R, 100.0));
  EXPECT_TRUE(injector.aliveAt(Proc::P, 100.0));
  ASSERT_TRUE(injector.deathTime(Proc::R).has_value());
  EXPECT_DOUBLE_EQ(*injector.deathTime(Proc::R), 5.0);
  EXPECT_FALSE(injector.deathTime(Proc::S).has_value());
}

TEST(FaultInjectorTest, SpikeFactorsMultiplyInsideWindows) {
  FaultPlan plan;
  plan.spikes.push_back({1.0, 3.0, 2.0, 3.0});
  plan.spikes.push_back({2.0, 4.0, 5.0, 7.0});
  FaultInjector injector(plan);
  EXPECT_DOUBLE_EQ(injector.alphaFactorAt(0.5), 1.0);
  EXPECT_DOUBLE_EQ(injector.alphaFactorAt(1.5), 2.0);
  EXPECT_DOUBLE_EQ(injector.alphaFactorAt(2.5), 10.0);  // overlap: 2·5
  EXPECT_DOUBLE_EQ(injector.betaFactorAt(2.5), 21.0);   // 3·7
  EXPECT_DOUBLE_EQ(injector.alphaFactorAt(3.5), 5.0);
  EXPECT_DOUBLE_EQ(injector.alphaFactorAt(4.0), 1.0);  // end is exclusive
}

TEST(FaultInjectorTest, StallWindowsChainToAFixpoint) {
  FaultPlan plan;
  plan.stalls.push_back({Proc::R, 1.0, 1.0});
  plan.stalls.push_back({Proc::R, 2.0, 1.0});  // back-to-back
  FaultInjector injector(plan);
  EXPECT_DOUBLE_EQ(injector.stallClearedAt(Proc::R, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(injector.stallClearedAt(Proc::R, 1.5), 3.0);
  EXPECT_DOUBLE_EQ(injector.stallClearedAt(Proc::R, 2.5), 3.0);
  EXPECT_DOUBLE_EQ(injector.stallClearedAt(Proc::R, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(injector.stallClearedAt(Proc::S, 1.5), 1.5);
}

TEST(FaultInjectorTest, DropDrawsAreSeedDeterministic) {
  FaultPlan plan;
  plan.seed = 77;
  plan.dropProbability = 0.5;
  FaultInjector a(plan), b(plan);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.dropHop(), b.dropHop());

  plan.dropProbability = 0.0;
  FaultInjector never(plan);
  plan.dropProbability = 1.0;
  FaultInjector always(plan);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(never.dropHop());
    EXPECT_TRUE(always.dropHop());
  }
}

// --------------------------------------------------- Network::sendReliable

Machine flatMachine() {
  Machine m;
  m.alphaSeconds = 0.0;
  m.sendElementSeconds = 1.0;
  m.ratio = Ratio{2, 1, 1};
  return m;
}

RetryPolicy unitPolicy() {
  RetryPolicy policy;
  policy.timeoutSeconds = 1.0;
  policy.backoffSeconds = 0.5;
  policy.backoffMaxSeconds = 2.0;
  policy.jitterFraction = 0.0;
  return policy;
}

TEST(SendReliableTest, InertPlanDeliversOnTheFirstAttempt) {
  EventQueue events;
  FaultInjector injector(FaultPlan{});
  Network net(events, flatMachine(), Topology::kFullyConnected, StarConfig{},
              injector);
  TransferOutcome out;
  net.sendReliable({Proc::R, Proc::P, 5}, 0.0, unitPolicy(),
                   [&](const TransferOutcome& o) { out = o; });
  events.run();
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_DOUBLE_EQ(out.at, 5.0);  // β·M: the Hockney instant
  EXPECT_EQ(net.stats().retriesSent, 0);
  EXPECT_EQ(net.stats().dropsInjected, 0);
}

TEST(SendReliableTest, RetriesUntilDeliveryUnderHeavyLoss) {
  EventQueue events;
  FaultPlan plan;
  plan.seed = 3;
  plan.dropProbability = 0.9;
  FaultInjector injector(plan);
  Network net(events, flatMachine(), Topology::kFullyConnected, StarConfig{},
              injector);
  RetryPolicy policy = unitPolicy();
  policy.maxAttempts = 200;  // delivery is (statistically) certain
  TransferOutcome out;
  net.sendReliable({Proc::R, Proc::P, 5}, 0.0, policy,
                   [&](const TransferOutcome& o) { out = o; });
  events.run();
  ASSERT_TRUE(out.delivered);
  EXPECT_GT(out.attempts, 1);
  EXPECT_GT(out.at, 5.0);  // timeouts and backoffs delayed the delivery
  EXPECT_EQ(net.stats().retriesSent, out.attempts - 1);
  EXPECT_EQ(net.stats().dropsInjected, out.attempts - 1);
  EXPECT_EQ(net.stats().transfersAbandoned, 0);
}

TEST(SendReliableTest, AbandonsAfterMaxAttempts) {
  EventQueue events;
  FaultPlan plan;
  plan.dropProbability = 1.0;
  FaultInjector injector(plan);
  Network net(events, flatMachine(), Topology::kFullyConnected, StarConfig{},
              injector);
  RetryPolicy policy = unitPolicy();
  policy.maxAttempts = 3;
  TransferOutcome out;
  net.sendReliable({Proc::R, Proc::P, 5}, 0.0, policy,
                   [&](const TransferOutcome& o) { out = o; });
  events.run();
  EXPECT_FALSE(out.delivered);
  EXPECT_FALSE(out.peerDead);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(net.stats().dropsInjected, 3);
  EXPECT_EQ(net.stats().retriesSent, 2);
  EXPECT_EQ(net.stats().transfersAbandoned, 1);
}

TEST(SendReliableTest, SingleAttemptExhaustionFailsAtTheDetectionInstant) {
  // maxAttempts = 1 is pure exhaustion: one hop, one ack timeout, no retry
  // and no backoff draw. The failure lands exactly when the sender learns of
  // the loss — hop end (β·M = 5) plus the ack timeout (1).
  EventQueue events;
  FaultPlan plan;
  plan.dropProbability = 1.0;
  FaultInjector injector(plan);
  Network net(events, flatMachine(), Topology::kFullyConnected, StarConfig{},
              injector);
  RetryPolicy policy = unitPolicy();
  policy.maxAttempts = 1;
  TransferOutcome out;
  net.sendReliable({Proc::R, Proc::P, 5}, 0.0, policy,
                   [&](const TransferOutcome& o) { out = o; });
  events.run();
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_DOUBLE_EQ(out.at, 6.0);
  EXPECT_EQ(net.stats().retriesSent, 0);
  EXPECT_EQ(net.stats().transfersAbandoned, 1);
}

TEST(SendReliableTest, ExhaustionFollowsTheCappedBackoffSchedule) {
  // Total loss with zero jitter makes the whole retry schedule exact. Every
  // attempt costs hop (5) + ack timeout (1); the backoffs between attempts
  // are 0.5, 1.0, then the 2.0 ceiling twice — the cap must hold the last
  // two retries at backoffMaxSeconds instead of 2.0 and 4.0:
  //   abandon at 5 · 6 + (0.5 + 1.0 + 2.0 + 2.0) = 35.5.
  EventQueue events;
  FaultPlan plan;
  plan.dropProbability = 1.0;
  FaultInjector injector(plan);
  Network net(events, flatMachine(), Topology::kFullyConnected, StarConfig{},
              injector);
  RetryPolicy policy = unitPolicy();  // backoff 0.5, factor 2, cap 2.0
  policy.maxAttempts = 5;
  TransferOutcome out;
  net.sendReliable({Proc::R, Proc::P, 5}, 0.0, policy,
                   [&](const TransferOutcome& o) { out = o; });
  events.run();
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.attempts, 5);
  EXPECT_DOUBLE_EQ(out.at, 35.5);
  EXPECT_EQ(net.stats().dropsInjected, 5);
  EXPECT_EQ(net.stats().retriesSent, 4);
  EXPECT_EQ(net.stats().transfersAbandoned, 1);
}

TEST(SendReliableTest, FailsFastOnADeadPeer) {
  EventQueue events;
  FaultPlan plan;
  plan.death = ProcDeath{Proc::P, 0.0};
  FaultInjector injector(plan);
  Network net(events, flatMachine(), Topology::kFullyConnected, StarConfig{},
              injector);
  TransferOutcome out;
  net.sendReliable({Proc::R, Proc::P, 5}, 1.0, unitPolicy(),
                   [&](const TransferOutcome& o) { out = o; });
  events.run();
  EXPECT_FALSE(out.delivered);
  EXPECT_TRUE(out.peerDead);
  EXPECT_EQ(net.stats().deadEndpointFailures, 1);
}

// ------------------------------------------------- simulateMMM under faults

SimOptions faultyOptions(const Ratio& ratio) {
  SimOptions opts;
  opts.machine.alphaSeconds = 0.0;
  opts.machine.sendElementSeconds = 8e-9;
  opts.machine.baseFlopSeconds = 1e-9;
  opts.machine.ratio = ratio;
  opts.chunksPerPair = 4;
  // Retry knobs scaled to the microsecond-sized runs these tests simulate.
  opts.retry.timeoutSeconds = 1e-5;
  opts.retry.backoffSeconds = 1e-6;
  opts.retry.backoffMaxSeconds = 1e-4;
  return opts;
}

TEST(SimFaultTest, DisabledPlanKeepsTheFaultFreePathBitIdentical) {
  Rng rng(11);
  const Ratio ratio{3, 2, 1};
  const auto q = randomPartition(20, ratio, rng);
  auto opts = faultyOptions(ratio);
  const auto base = simulateMMM(Algo::kSCB, q, opts);
  opts.faults.seed = 999;  // still no faults configured → still disabled
  const auto again = simulateMMM(Algo::kSCB, q, opts);
  EXPECT_EQ(base.execSeconds, again.execSeconds);
  EXPECT_EQ(base.commSeconds, again.commSeconds);
  EXPECT_EQ(base.network.messagesSent, again.network.messagesSent);
  EXPECT_EQ(again.network.dropsInjected, 0);
  EXPECT_EQ(again.network.retriesSent, 0);
  EXPECT_TRUE(again.completed);
  EXPECT_FALSE(again.recovery.processorDied);
}

TEST(SimFaultTest, InvalidRetryPolicyIsRefusedUnderAnInertPlan) {
  // Every run sends through the retransmitting transfer layer, so its
  // policy is checked even when the plan injects nothing.
  Rng rng(10);
  const Ratio ratio{3, 2, 1};
  const auto q = randomPartition(12, ratio, rng);
  auto opts = faultyOptions(ratio);
  ASSERT_FALSE(opts.faults.enabled());
  opts.retry.maxAttempts = 0;
  for (Algo algo : kAllAlgos)
    EXPECT_THROW(simulateMMM(algo, q, opts), CheckError) << algoName(algo);
}

TEST(SimFaultTest, DropsForceRetriesAndInflateTheRun) {
  Rng rng(12);
  const Ratio ratio{3, 2, 1};
  const auto q = randomPartition(20, ratio, rng);
  auto opts = faultyOptions(ratio);
  const double baseline = simulateMMM(Algo::kSCB, q, opts).execSeconds;
  opts.faults.seed = 5;
  opts.faults.dropProbability = 0.3;
  const auto faulty = simulateMMM(Algo::kSCB, q, opts);
  EXPECT_TRUE(faulty.completed);
  EXPECT_GT(faulty.network.dropsInjected, 0);
  EXPECT_GT(faulty.network.retriesSent, 0);
  EXPECT_GT(faulty.execSeconds, baseline);
}

TEST(SimFaultTest, SameSeedReproducesTheRunExactly) {
  Rng rng(13);
  const Ratio ratio{2, 1, 1};
  const auto q = randomPartition(16, ratio, rng);
  auto opts = faultyOptions(ratio);
  opts.faults.seed = 21;
  opts.faults.dropProbability = 0.25;
  const auto a = simulateMMM(Algo::kPCB, q, opts);
  const auto b = simulateMMM(Algo::kPCB, q, opts);
  EXPECT_EQ(a.execSeconds, b.execSeconds);
  EXPECT_EQ(a.network.dropsInjected, b.network.dropsInjected);
  EXPECT_EQ(a.network.retriesSent, b.network.retriesSent);
}

TEST(SimFaultTest, LatencySpikeSlowsCommunication) {
  Rng rng(14);
  const Ratio ratio{3, 1, 1};
  const auto q = randomPartition(16, ratio, rng);
  auto opts = faultyOptions(ratio);
  const double baseline = simulateMMM(Algo::kSCB, q, opts).execSeconds;
  opts.faults.spikes.push_back({0.0, 1.0, 1.0, 8.0});  // 8× β all run long
  const auto spiked = simulateMMM(Algo::kSCB, q, opts);
  EXPECT_TRUE(spiked.completed);
  EXPECT_GT(spiked.execSeconds, baseline);
}

TEST(SimFaultTest, NicStallDelaysTheSender) {
  Rng rng(15);
  const Ratio ratio{3, 1, 1};
  const auto q = randomPartition(16, ratio, rng);
  auto opts = faultyOptions(ratio);
  const double baseline = simulateMMM(Algo::kSCB, q, opts).execSeconds;
  // Every processor's NIC is down for the first 10× of the baseline run.
  for (Proc p : kAllProcs)
    opts.faults.stalls.push_back({p, 0.0, baseline * 10});
  const auto stalled = simulateMMM(Algo::kSCB, q, opts);
  EXPECT_TRUE(stalled.completed);
  EXPECT_GT(stalled.execSeconds, baseline);
}

TEST(SimFaultTest, ExhaustedRetriesMarkTheRunIncomplete) {
  Rng rng(16);
  const Ratio ratio{2, 1, 1};
  const auto q = randomPartition(12, ratio, rng);
  auto opts = faultyOptions(ratio);
  opts.faults.dropProbability = 1.0;
  opts.retry.maxAttempts = 2;
  const auto result = simulateMMM(Algo::kSCB, q, opts);
  EXPECT_FALSE(result.completed);
  EXPECT_GT(result.network.transfersAbandoned, 0);
}

TEST(SimFaultTest, AcceptanceDropsPlusMidRunDeathRecoversViaRebalance) {
  // The issue's acceptance scenario: drop probability 0.05 plus a processor
  // death at 50% of the baseline run, fixed seed. The run must complete via
  // the degrade-to-survivors rebalance, the failover schedule must verify,
  // and the fault counters must be nonzero.
  Rng rng(17);
  const Ratio ratio{5, 2, 1};
  const auto q = randomPartition(24, ratio, rng);
  auto opts = faultyOptions(ratio);
  opts.chunksPerPair = 6;
  const double baseline = simulateMMM(Algo::kSCB, q, opts).execSeconds;
  opts.faults.seed = 7;
  opts.faults.dropProbability = 0.05;
  opts.faults.death = ProcDeath{Proc::R, baseline * 0.5};
  const auto result = simulateMMM(Algo::kSCB, q, opts);
  EXPECT_TRUE(result.completed);
  ASSERT_TRUE(result.recovery.processorDied);
  EXPECT_EQ(result.recovery.deadProc, Proc::R);
  EXPECT_TRUE(result.recovery.failoverPlanVerified);
  EXPECT_GT(result.recovery.reassignedElements, 0);
  EXPECT_GT(result.recovery.refetchedElements, 0);
  EXPECT_GT(result.recovery.recoverySeconds, 0.0);
  EXPECT_GT(result.recovery.vocAfter, 0);
  EXPECT_GE(result.recovery.deathDetectedAt, baseline * 0.5);
  EXPECT_GT(result.network.dropsInjected + result.network.retriesSent, 0);
  EXPECT_GT(result.execSeconds, baseline);
}

TEST(SimFaultTest, DeathWithoutRebalanceAbortsTheRun) {
  Rng rng(18);
  const Ratio ratio{3, 2, 1};
  const auto q = randomPartition(16, ratio, rng);
  auto opts = faultyOptions(ratio);
  const double baseline = simulateMMM(Algo::kSCB, q, opts).execSeconds;
  opts.faults.death = ProcDeath{Proc::S, baseline * 0.5};
  opts.rebalanceOnDeath = false;
  const auto result = simulateMMM(Algo::kSCB, q, opts);
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.recovery.processorDied);
  EXPECT_FALSE(result.recovery.failoverPlanVerified);
}

TEST(SimFaultTest, EveryAlgorithmSurvivesAMidRunDeath) {
  Rng rng(19);
  const Ratio ratio{4, 2, 1};
  const auto q = randomPartition(20, ratio, rng);
  for (Algo algo : kAllAlgos) {
    auto opts = faultyOptions(ratio);
    const double baseline = simulateMMM(algo, q, opts).execSeconds;
    opts.faults.seed = 23;
    opts.faults.death = ProcDeath{Proc::R, baseline * 0.5};
    const auto result = simulateMMM(algo, q, opts);
    EXPECT_TRUE(result.completed) << algoName(algo);
    EXPECT_TRUE(result.recovery.processorDied) << algoName(algo);
    EXPECT_TRUE(result.recovery.failoverPlanVerified) << algoName(algo);
    EXPECT_GT(result.recovery.reassignedElements, 0) << algoName(algo);
  }
}

TEST(SimFaultTest, DeathAfterTheRunFinishesIsHarmless) {
  Rng rng(20);
  const Ratio ratio{3, 2, 1};
  const auto q = randomPartition(16, ratio, rng);
  for (Algo algo : {Algo::kSCB, Algo::kPIO}) {
    auto opts = faultyOptions(ratio);
    const double baseline = simulateMMM(algo, q, opts).execSeconds;
    opts.faults.death = ProcDeath{Proc::R, baseline * 2};
    const auto result = simulateMMM(algo, q, opts);
    EXPECT_TRUE(result.completed) << algoName(algo);
    EXPECT_FALSE(result.recovery.processorDied) << algoName(algo);
    EXPECT_NEAR(result.execSeconds, baseline, baseline * 1e-9)
        << algoName(algo);
  }
}

// --------------------------------------------------------- cluster faults

TEST(ClusterFaultPlanTest, DefaultPlanIsInert) {
  ClusterFaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.validate(3);  // must not throw
}

TEST(ClusterFaultPlanTest, AnyFaultEnablesThePlan) {
  ClusterFaultPlan killed;
  killed.kills.push_back({1, 1.0, std::nullopt});
  EXPECT_TRUE(killed.enabled());

  ClusterFaultPlan cut;
  cut.partitions.push_back({kRouterEndpoint, 2, 0.0, 1.0});
  EXPECT_TRUE(cut.enabled());

  ClusterFaultPlan flappy;
  flappy.flaps.push_back({0, 0.0, 2.0, 0.5, 0.5});
  EXPECT_TRUE(flappy.enabled());

  ClusterFaultPlan lossy;
  lossy.heartbeatDropProbability = 0.1;
  EXPECT_TRUE(lossy.enabled());
}

TEST(ClusterFaultPlanTest, ValidationRejectsBadValues) {
  ClusterFaultPlan plan;
  plan.kills.push_back({3, 1.0, std::nullopt});  // node id out of range
  EXPECT_THROW(plan.validate(3), CheckError);

  plan = ClusterFaultPlan{};
  plan.kills.push_back({0, 2.0, 1.0});  // rejoin before the kill
  EXPECT_THROW(plan.validate(3), CheckError);

  plan = ClusterFaultPlan{};
  plan.partitions.push_back({1, 1, 0.0, 1.0});  // endpoints must differ
  EXPECT_THROW(plan.validate(3), CheckError);

  plan = ClusterFaultPlan{};
  plan.partitions.push_back({kRouterEndpoint, 0, 2.0, 1.0});  // inverted
  EXPECT_THROW(plan.validate(3), CheckError);

  plan = ClusterFaultPlan{};
  plan.flaps.push_back({0, 0.0, 2.0, 0.0, 0.5});  // non-positive period
  EXPECT_THROW(plan.validate(3), CheckError);

  plan = ClusterFaultPlan{};
  plan.slowNodes.push_back({0, 0.0, 2.0, 0.5});  // factor < 1
  EXPECT_THROW(plan.validate(3), CheckError);

  plan = ClusterFaultPlan{};
  plan.heartbeatDropProbability = 1.5;
  EXPECT_THROW(plan.validate(3), CheckError);
}

TEST(ClusterFaultInjectorTest, KillWindowCoversKillToRejoin) {
  ClusterFaultPlan plan;
  plan.kills.push_back({1, 2.0, 5.0});
  ClusterFaultInjector injector(plan, 3);
  EXPECT_FALSE(injector.killedAt(1, 1.999));
  EXPECT_TRUE(injector.killedAt(1, 2.0));
  EXPECT_TRUE(injector.killedAt(1, 4.999));
  EXPECT_FALSE(injector.killedAt(1, 5.0));  // rejoined
  EXPECT_FALSE(injector.killedAt(0, 3.0));  // other nodes untouched
  ASSERT_TRUE(injector.rejoinTime(1).has_value());
  EXPECT_DOUBLE_EQ(*injector.rejoinTime(1), 5.0);
  EXPECT_FALSE(injector.rejoinTime(0).has_value());
}

TEST(ClusterFaultInjectorTest, PermanentKillNeverRejoins) {
  ClusterFaultPlan plan;
  plan.kills.push_back({0, 1.0, std::nullopt});
  ClusterFaultInjector injector(plan, 2);
  EXPECT_TRUE(injector.killedAt(0, 1.0));
  EXPECT_TRUE(injector.killedAt(0, 1e9));
  EXPECT_FALSE(injector.rejoinTime(0).has_value());
}

TEST(ClusterFaultInjectorTest, FlapAlternatesUpThenDownEachPeriod) {
  ClusterFaultPlan plan;
  plan.flaps.push_back({2, 1.0, 3.0, 1.0, 0.5});
  ClusterFaultInjector injector(plan, 3);
  EXPECT_FALSE(injector.flappedDownAt(2, 0.5));   // before the window
  EXPECT_FALSE(injector.flappedDownAt(2, 1.25));  // up half of period 1
  EXPECT_TRUE(injector.flappedDownAt(2, 1.75));   // down half of period 1
  EXPECT_FALSE(injector.flappedDownAt(2, 2.25));  // up half of period 2
  EXPECT_TRUE(injector.flappedDownAt(2, 2.75));
  EXPECT_FALSE(injector.flappedDownAt(2, 3.0));  // window end is exclusive
  EXPECT_FALSE(injector.flappedDownAt(0, 1.75));
  // Ground truth combines the fault kinds.
  EXPECT_FALSE(injector.nodeUpAt(2, 1.75));
  EXPECT_TRUE(injector.nodeUpAt(2, 2.25));
}

TEST(ClusterFaultInjectorTest, LinkPartitionIsSymmetricAndWindowed) {
  ClusterFaultPlan plan;
  plan.partitions.push_back({kRouterEndpoint, 1, 1.0, 2.0});
  ClusterFaultInjector injector(plan, 3);
  EXPECT_TRUE(injector.linkUpAt(kRouterEndpoint, 1, 0.5));
  EXPECT_FALSE(injector.linkUpAt(kRouterEndpoint, 1, 1.5));
  EXPECT_FALSE(injector.linkUpAt(1, kRouterEndpoint, 1.5));  // symmetric
  EXPECT_TRUE(injector.linkUpAt(kRouterEndpoint, 1, 2.0));   // end exclusive
  EXPECT_TRUE(injector.linkUpAt(kRouterEndpoint, 2, 1.5));   // other links up
}

TEST(ClusterFaultInjectorTest, SlowFactorsMultiplyInsideWindows) {
  ClusterFaultPlan plan;
  plan.slowNodes.push_back({0, 1.0, 3.0, 2.0});
  plan.slowNodes.push_back({0, 2.0, 4.0, 3.0});
  ClusterFaultInjector injector(plan, 2);
  EXPECT_DOUBLE_EQ(injector.slowFactorAt(0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(injector.slowFactorAt(0, 1.5), 2.0);
  EXPECT_DOUBLE_EQ(injector.slowFactorAt(0, 2.5), 6.0);  // overlap: 2·3
  EXPECT_DOUBLE_EQ(injector.slowFactorAt(0, 3.5), 3.0);
  EXPECT_DOUBLE_EQ(injector.slowFactorAt(1, 2.5), 1.0);
}

TEST(ClusterFaultInjectorTest, HeartbeatDropsAreSeedDeterministic) {
  ClusterFaultPlan plan;
  plan.seed = 41;
  plan.heartbeatDropProbability = 0.5;
  ClusterFaultInjector a(plan, 3), b(plan, 3);
  bool anyDropped = false;
  for (int i = 0; i < 64; ++i) {
    const bool dropped = a.dropHeartbeat();
    EXPECT_EQ(dropped, b.dropHeartbeat());
    anyDropped = anyDropped || dropped;
  }
  EXPECT_TRUE(anyDropped);

  plan.heartbeatDropProbability = 0.0;
  ClusterFaultInjector never(plan, 3);
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(never.dropHeartbeat());
}

}  // namespace
}  // namespace pushpart
