#include "cluster/detector.hpp"

#include <gtest/gtest.h>

#include "support/check.hpp"

namespace pushpart {
namespace {

DetectorOptions thresholds(double suspect, double confirm) {
  DetectorOptions o;
  o.suspectAfterSeconds = suspect;
  o.confirmAfterSeconds = confirm;
  return o;
}

TEST(DetectorOptionsTest, ValidationRejectsBadThresholds) {
  EXPECT_THROW(thresholds(0.0, 0.4).validate(), CheckError);
  EXPECT_THROW(thresholds(-0.1, 0.4).validate(), CheckError);
  EXPECT_THROW(thresholds(0.4, 0.4).validate(), CheckError);  // not inverted,
  EXPECT_THROW(thresholds(0.5, 0.4).validate(), CheckError);  // not equal.
  EXPECT_NO_THROW(thresholds(0.15, 0.4).validate());
}

TEST(FailureDetectorTest, SilenceWalksAliveSuspectDown) {
  // Thresholds are exact binary fractions (0.25, 0.5) so the boundary
  // arithmetic is FP-exact: silence == threshold stays in the milder state.
  FailureDetector det(1, thresholds(0.25, 0.5), /*startSeconds=*/10.0);
  // healthAt is pure: probing every boundary never mutates state.
  EXPECT_EQ(det.healthAt(0, 10.0), NodeHealth::kAlive);
  EXPECT_EQ(det.healthAt(0, 10.25), NodeHealth::kAlive);   // <= suspect
  EXPECT_EQ(det.healthAt(0, 10.3), NodeHealth::kSuspect);
  EXPECT_EQ(det.healthAt(0, 10.5), NodeHealth::kSuspect);  // <= confirm
  EXPECT_EQ(det.healthAt(0, 10.6), NodeHealth::kDown);
  // And an earlier probe still sees the earlier answer.
  EXPECT_EQ(det.healthAt(0, 10.1), NodeHealth::kAlive);
}

TEST(FailureDetectorTest, HeartbeatResetsTheSilenceWindow) {
  FailureDetector det(1, thresholds(0.15, 0.4));
  det.heartbeat(0, 1.0);
  EXPECT_EQ(det.healthAt(0, 1.1), NodeHealth::kAlive);
  det.heartbeat(0, 1.1);
  // The window restarts from the newest beat.
  EXPECT_EQ(det.healthAt(0, 1.25), NodeHealth::kAlive);
  EXPECT_EQ(det.healthAt(0, 1.3), NodeHealth::kSuspect);
}

TEST(FailureDetectorTest, StaleHeartbeatNeverRewindsTime) {
  FailureDetector det(1, thresholds(0.15, 0.4));
  det.heartbeat(0, 5.0);
  det.heartbeat(0, 3.0);  // late-arriving, out of order: ignored
  // Silent since 5.0, not since 3.0: still alive 0.1 s later.
  EXPECT_EQ(det.healthAt(0, 5.1), NodeHealth::kAlive);
}

TEST(FailureDetectorTest, ObserveCountsEachEdgeOnce) {
  FailureDetector det(2, thresholds(0.15, 0.4));
  // Node 0 goes silent: alive -> suspect -> down, each edge counted once
  // no matter how often observe() re-runs inside a phase.
  EXPECT_EQ(det.observe(0, 0.1), NodeHealth::kAlive);
  EXPECT_EQ(det.observe(0, 0.2), NodeHealth::kSuspect);
  EXPECT_EQ(det.observe(0, 0.3), NodeHealth::kSuspect);
  EXPECT_EQ(det.counters().suspicions, 1u);
  EXPECT_EQ(det.observe(0, 0.5), NodeHealth::kDown);
  EXPECT_EQ(det.observe(0, 0.6), NodeHealth::kDown);
  EXPECT_EQ(det.counters().confirmations, 1u);
  EXPECT_EQ(det.counters().recoveries, 0u);

  // It comes back: down -> alive is one recovery.
  det.heartbeat(0, 0.7);
  EXPECT_EQ(det.observe(0, 0.7), NodeHealth::kAlive);
  EXPECT_EQ(det.counters().recoveries, 1u);

  // Node 1 heartbeated throughout; its edges never fired.
  det.heartbeat(1, 0.6);
  EXPECT_EQ(det.observe(1, 0.7), NodeHealth::kAlive);
  EXPECT_EQ(det.counters().suspicions, 1u);
  EXPECT_EQ(det.counters().confirmations, 1u);
}

TEST(FailureDetectorTest, SuspicionRecoversWithoutConfirmation) {
  // A dropped heartbeat or two: the node dips into suspicion, the next
  // beat lands, and no confirmation is ever counted — the two-threshold
  // design's whole purpose.
  FailureDetector det(1, thresholds(0.15, 0.4));
  EXPECT_EQ(det.observe(0, 0.2), NodeHealth::kSuspect);
  det.heartbeat(0, 0.25);
  EXPECT_EQ(det.observe(0, 0.3), NodeHealth::kAlive);
  EXPECT_EQ(det.counters().suspicions, 1u);
  EXPECT_EQ(det.counters().confirmations, 0u);
  EXPECT_EQ(det.counters().recoveries, 1u);
}

TEST(FailureDetectorTest, SilentCrashSkipsStraightToConfirmation) {
  // If observe() first runs long after the crash, the alive -> down edge
  // still counts as a confirmation (and not also a suspicion).
  FailureDetector det(1, thresholds(0.15, 0.4));
  EXPECT_EQ(det.observe(0, 5.0), NodeHealth::kDown);
  EXPECT_EQ(det.counters().suspicions, 0u);
  EXPECT_EQ(det.counters().confirmations, 1u);
}

}  // namespace
}  // namespace pushpart
