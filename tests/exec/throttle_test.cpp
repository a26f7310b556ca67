#include "exec/throttle.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/check.hpp"
#include "support/stopwatch.hpp"

namespace pushpart {
namespace {

/// A sleep step that does not sleep: it records each request and reports
/// exactly the requested seconds as measured, so the duty-cycle arithmetic
/// is checked exactly and independently of the host's scheduler.
struct FakeSleep {
  std::vector<double> requests;

  Throttle::SleepStep step() {
    return [this](double seconds) {
      requests.push_back(seconds);
      return seconds;
    };
  }
};

TEST(ThrottleTest, FullSpeedNeverSleeps) {
  FakeSleep sleep;
  Throttle t(1.0, sleep.step());
  for (int i = 0; i < 100; ++i) t.charge(0.01);
  EXPECT_DOUBLE_EQ(t.sleptSeconds(), 0.0);
  EXPECT_TRUE(sleep.requests.empty());
}

TEST(ThrottleTest, HalfSpeedSleepsAsMuchAsItWorks) {
  FakeSleep sleep;
  Throttle t(0.5, sleep.step());
  t.charge(0.02);
  // After 0.02 s of compute at 50% duty, elapsed should be 0.04 s.
  EXPECT_DOUBLE_EQ(t.sleptSeconds(), 0.02);
  ASSERT_EQ(sleep.requests.size(), 1u);
  EXPECT_DOUBLE_EQ(sleep.requests[0], 0.02);
}

TEST(ThrottleTest, QuarterSpeedSleepsThreeTimesTheWork) {
  FakeSleep sleep;
  Throttle t(0.25, sleep.step());
  t.charge(0.01);
  EXPECT_DOUBLE_EQ(t.sleptSeconds(), 0.03);
}

TEST(ThrottleTest, SleepAccumulatesAcrossCharges) {
  FakeSleep sleep;
  Throttle t(0.5, sleep.step());
  for (int i = 0; i < 4; ++i) t.charge(0.005);
  EXPECT_DOUBLE_EQ(t.sleptSeconds(), 0.02);
  EXPECT_EQ(sleep.requests.size(), 4u);
}

TEST(ThrottleTest, MeasuredOversleepIsRepaidByTheNextSleep) {
  // The throttle books what the step measured, not what it asked for: a
  // step that oversleeps by half makes the next request that much shorter.
  std::vector<double> requests;
  Throttle t(0.5, [&](double seconds) {
    requests.push_back(seconds);
    return 1.5 * seconds;
  });
  t.charge(0.02);  // asks 0.02, measures 0.03
  t.charge(0.02);  // owes 0.08 − 0.04 − 0.03 = 0.01
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_DOUBLE_EQ(requests[0], 0.02);
  EXPECT_DOUBLE_EQ(requests[1], 0.01);
  EXPECT_DOUBLE_EQ(t.sleptSeconds(), 0.045);
}

TEST(ThrottleTest, ActualWallClockMatchesDutyCycle) {
  // The real sleep step: sleep_for never returns early, so only a lower
  // bound holds on a host that may oversleep by any amount.
  Throttle t(0.5);
  Stopwatch sw;
  t.charge(0.02);
  EXPECT_GE(t.sleptSeconds(), 0.02);
  EXPECT_GE(sw.seconds(), t.sleptSeconds());
}

TEST(ThrottleTest, FullSpeedNeverSleepsEvenOnManyTinyCharges) {
  // fraction = 1.0 must short-circuit before any sleep arithmetic: thousands
  // of sub-quantum charges still ask for no sleep and book no slept seconds.
  FakeSleep sleep;
  Throttle t(1.0, sleep.step());
  for (int i = 0; i < 5000; ++i) t.charge(1e-6);
  EXPECT_DOUBLE_EQ(t.sleptSeconds(), 0.0);
  EXPECT_TRUE(sleep.requests.empty());
}

TEST(ThrottleTest, SubQuantumChargesAccumulateUntilTheDebtIsDue) {
  // Individually negligible charges must add up to the same sleep debt as
  // one lump charge of the same total. The charge is a power of two, so
  // both totals are exact.
  constexpr double kCharge = 1.0 / 2048;
  FakeSleep manySleep;
  Throttle many(0.5, manySleep.step());
  for (int i = 0; i < 40; ++i) many.charge(kCharge);
  FakeSleep lumpSleep;
  Throttle lump(0.5, lumpSleep.step());
  lump.charge(40 * kCharge);
  EXPECT_DOUBLE_EQ(many.sleptSeconds(), lump.sleptSeconds());
  EXPECT_DOUBLE_EQ(many.sleptSeconds(), 40 * kCharge);
  EXPECT_EQ(manySleep.requests.size(), 40u);
  EXPECT_EQ(lumpSleep.requests.size(), 1u);
}

TEST(ThrottleTest, SleptSecondsIsMonotoneNonDecreasing) {
  FakeSleep sleep;
  Throttle t(0.25, sleep.step());
  double last = 0.0;
  for (int i = 0; i < 20; ++i) {
    t.charge(5e-4);
    const double now = t.sleptSeconds();
    EXPECT_GE(now, last);
    last = now;
  }
  EXPECT_GT(last, 0.0);
}

TEST(ThrottleTest, ZeroChargeIsANoOp) {
  FakeSleep sleep;
  Throttle t(0.5, sleep.step());
  t.charge(0.0);
  EXPECT_DOUBLE_EQ(t.sleptSeconds(), 0.0);
  EXPECT_TRUE(sleep.requests.empty());
}

TEST(ThrottleTest, InvalidFractionsRejected) {
  EXPECT_THROW(Throttle(0.0), CheckError);
  EXPECT_THROW(Throttle(-0.5), CheckError);
  EXPECT_THROW(Throttle(1.5), CheckError);
}

TEST(ThrottleTest, NegativeChargeRejected) {
  Throttle t(0.5);
  EXPECT_THROW(t.charge(-1.0), CheckError);
}

}  // namespace
}  // namespace pushpart
