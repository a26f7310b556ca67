#include "dfa/batch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "grid/builder.hpp"
#include "support/check.hpp"
#include "support/deadline.hpp"

namespace pushpart {
namespace {

TEST(BatchTest, RunsRequestedNumberOfWalks) {
  BatchOptions opts;
  opts.n = 12;
  opts.ratio = Ratio{2, 1, 1};
  opts.runs = 8;
  opts.threads = 3;
  opts.seed = 17;
  std::vector<int> indices;
  runBatch(opts, [&](const BatchRun& run) {
    indices.push_back(run.runIndex);
    EXPECT_LE(run.result.vocEnd, run.result.vocStart);
  });
  EXPECT_EQ(indices.size(), 8u);
  // Every index exactly once, regardless of thread interleaving.
  std::set<int> unique(indices.begin(), indices.end());
  EXPECT_EQ(unique.size(), 8u);
  EXPECT_EQ(*unique.begin(), 0);
  EXPECT_EQ(*unique.rbegin(), 7);
}

TEST(BatchTest, ReproducibleAcrossThreadCounts) {
  BatchOptions opts;
  opts.n = 10;
  opts.ratio = Ratio{3, 1, 1};
  opts.runs = 6;
  opts.seed = 23;

  auto collect = [&](int threads) {
    opts.threads = threads;
    std::vector<std::uint64_t> hashes(static_cast<std::size_t>(opts.runs));
    runBatch(opts, [&](const BatchRun& run) {
      hashes[static_cast<std::size_t>(run.runIndex)] = run.result.final.hash();
    });
    return hashes;
  };

  EXPECT_EQ(collect(1), collect(4));
}

TEST(BatchTest, ZeroRunsIsNoOp) {
  BatchOptions opts;
  opts.runs = 0;
  int calls = 0;
  runBatch(opts, [&](const BatchRun&) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(BatchTest, InvalidRatioRejected) {
  BatchOptions opts;
  opts.ratio = Ratio{1, 2, 1};  // R faster than P violates §IV assumption 2
  EXPECT_THROW(runBatch(opts, [](const BatchRun&) {}), CheckError);
}

TEST(BatchTest, NegativeRunsRejectedWithPreciseMessage) {
  BatchOptions opts;
  opts.runs = -3;
  try {
    runBatch(opts, [](const BatchRun&) {});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("runs"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos);
  }
}

TEST(BatchTest, NegativeThreadsRejectedWithPreciseMessage) {
  BatchOptions opts;
  opts.threads = -2;
  try {
    runBatch(opts, [](const BatchRun&) {});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("threads"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-2"), std::string::npos);
  }
}

TEST(BatchTest, CallbackExceptionRecordedNotRethrown) {
  BatchOptions opts;
  opts.n = 8;
  opts.runs = 4;
  opts.threads = 2;
  // A throwing callback must not kill the process, deadlock the workers or
  // abort the batch; every run is attempted and every failure is recorded.
  const BatchSummary summary = runBatch(opts, [](const BatchRun&) {
    throw std::runtime_error("callback failure");
  });
  EXPECT_EQ(summary.completed, 0);
  ASSERT_EQ(summary.failures.size(), 4u);
  EXPECT_FALSE(summary.allCompleted());
  for (std::size_t i = 0; i < summary.failures.size(); ++i) {
    EXPECT_EQ(summary.failures[i].runIndex, static_cast<int>(i));
    EXPECT_EQ(summary.failures[i].message, "callback failure");
  }
}

TEST(BatchTest, FailedRunDoesNotAbortTheOthers) {
  BatchOptions opts;
  opts.n = 8;
  opts.runs = 6;
  opts.threads = 3;
  const BatchSummary summary = runBatch(opts, [](const BatchRun& run) {
    if (run.runIndex == 2) throw std::runtime_error("only run 2 fails");
  });
  EXPECT_EQ(summary.completed, 5);
  ASSERT_EQ(summary.failures.size(), 1u);
  EXPECT_EQ(summary.failures.front().runIndex, 2);
  EXPECT_EQ(summary.failures.front().message, "only run 2 fails");
}

TEST(BatchTest, NonStdExceptionRecordedAsUnknown) {
  BatchOptions opts;
  opts.n = 8;
  opts.runs = 1;
  opts.threads = 1;
  const BatchSummary summary =
      runBatch(opts, [](const BatchRun&) { throw 42; });
  EXPECT_EQ(summary.completed, 0);
  ASSERT_EQ(summary.failures.size(), 1u);
  EXPECT_EQ(summary.failures.front().message, "unknown error");
}

TEST(BatchTest, CleanBatchReportsAllCompleted) {
  BatchOptions opts;
  opts.n = 8;
  opts.runs = 5;
  const BatchSummary summary = runBatch(opts, [](const BatchRun&) {});
  EXPECT_EQ(summary.completed, 5);
  EXPECT_TRUE(summary.allCompleted());
}

TEST(BatchTest, PreCancelledBatchSkipsEveryRunWithoutThrowing) {
  BatchOptions opts;
  opts.n = 12;
  opts.runs = 5;
  opts.threads = 2;
  opts.cancel.requestCancel();
  int calls = 0;
  const BatchSummary summary = runBatch(opts, [&](const BatchRun&) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(summary.completed, 0);
  EXPECT_EQ(summary.skippedRuns, 5);
  EXPECT_TRUE(summary.truncated());
  EXPECT_FALSE(summary.allCompleted());
  EXPECT_TRUE(summary.failures.empty());
}

TEST(BatchTest, CancelDuringBatchReturnsBestSoFarTruncated) {
  BatchOptions opts;
  opts.n = 12;
  opts.runs = 8;
  opts.threads = 1;  // deterministic delivery order
  int delivered = 0;
  const BatchSummary summary = runBatch(opts, [&](const BatchRun& run) {
    ++delivered;
    // The already-delivered runs finished naturally, never torn.
    EXPECT_NE(run.result.stop, DfaStop::kCancelled);
    EXPECT_LE(run.result.vocEnd, run.result.vocStart);
    if (delivered == 3) opts.cancel.requestCancel();
  });
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(summary.completed, 3);
  EXPECT_EQ(summary.skippedRuns, 5);
  EXPECT_TRUE(summary.truncated());
}

/// A clock whose time is the number of times it has been read — it lets a
/// single-threaded test expire a deadline deterministically partway through
/// a walk, with no sleeping and no second thread.
class CountingClock : public Clock {
 public:
  double nowSeconds() const override {
    return static_cast<double>(reads_++);
  }

 private:
  mutable std::int64_t reads_ = 0;
};

TEST(BatchTest, MidWalkDeadlineExpiryStopsWithCancelledAndIntactPartition) {
  // The deadline expires after a handful of cancel-token polls: the walk is
  // genuinely underway when it stops.
  CountingClock clock;
  DfaOptions dfa;
  dfa.cancel = CancelToken{Deadline::after(5.0, clock)};
  dfa.cancelCheckEvery = 1;  // poll at every push
  Rng rng(7);
  const DfaResult result = runDfa(randomPartition(24, Ratio{2, 1, 1}, rng),
                                  Schedule::random(rng), dfa);
  EXPECT_EQ(result.stop, DfaStop::kCancelled);
  EXPECT_GT(result.pushesApplied, 0);
  // Best-so-far state is valid: pushes are transactional, so the VoC never
  // rose and the result is a real (if unfinished) partition.
  EXPECT_LE(result.vocEnd, result.vocStart);
  EXPECT_EQ(result.final.volumeOfCommunication(), result.vocEnd);
}

TEST(BatchTest, PreCancelledWalkStopsBeforeAnyPush) {
  DfaOptions dfa;
  dfa.cancel.requestCancel();
  Rng rng(7);
  const DfaResult result = runDfa(randomPartition(16, Ratio{2, 1, 1}, rng),
                                  Schedule::random(rng), dfa);
  EXPECT_EQ(result.stop, DfaStop::kCancelled);
  EXPECT_EQ(result.pushesApplied, 0);
  EXPECT_EQ(result.vocEnd, result.vocStart);
}

TEST(BatchTest, SchedulesVaryAcrossRuns) {
  BatchOptions opts;
  opts.n = 10;
  opts.runs = 12;
  opts.seed = 31;
  std::set<std::string> schedules;
  runBatch(opts, [&](const BatchRun& run) {
    schedules.insert(run.schedule.str());
  });
  EXPECT_GT(schedules.size(), 4u);
}

}  // namespace
}  // namespace pushpart
