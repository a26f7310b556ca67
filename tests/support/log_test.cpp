#include "support/log.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/stopwatch.hpp"

namespace pushpart {
namespace {

class LogLevelGuard {
 public:
  LogLevelGuard() : saved_(logLevel()) {}
  ~LogLevelGuard() { setLogLevel(saved_); }

 private:
  LogLevel saved_;
};

TEST(LogTest, LevelThresholdRoundTrips) {
  LogLevelGuard guard;
  setLogLevel(LogLevel::kWarn);
  EXPECT_EQ(logLevel(), LogLevel::kWarn);
  setLogLevel(LogLevel::kDebug);
  EXPECT_EQ(logLevel(), LogLevel::kDebug);
}

TEST(LogTest, SuppressedMessagesDoNotCrash) {
  LogLevelGuard guard;
  setLogLevel(LogLevel::kError);
  // These go below the threshold and must be dropped silently.
  PUSHPART_LOG(kDebug) << "dropped " << 1;
  PUSHPART_LOG(kInfo) << "dropped " << 2.5;
  PUSHPART_LOG(kWarn) << "dropped " << "three";
}

TEST(LogTest, StreamSyntaxFormatsMixedTypes) {
  LogLevelGuard guard;
  setLogLevel(LogLevel::kError);  // keep test output clean
  PUSHPART_LOG(kInfo) << "n=" << 42 << " ratio=" << 2.5 << " ok=" << true;
}

TEST(LogTest, ConcurrentLoggingIsSafe) {
  LogLevelGuard guard;
  setLogLevel(LogLevel::kError);  // suppressed, but the path is exercised
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 200; ++i)
        PUSHPART_LOG(kInfo) << "thread " << t << " line " << i;
    });
  }
  for (auto& th : threads) th.join();
}

TEST(LogTest, ParseLogLevelAcceptsEveryName) {
  EXPECT_EQ(parseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(parseLogLevel("info"), LogLevel::kInfo);
  EXPECT_EQ(parseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(parseLogLevel("error"), LogLevel::kError);
}

TEST(LogTest, ParseLogLevelRejectsUnknownNames) {
  EXPECT_THROW(parseLogLevel("verbose"), std::invalid_argument);
  EXPECT_THROW(parseLogLevel(""), std::invalid_argument);
  EXPECT_THROW(parseLogLevel("DEBUG"), std::invalid_argument);
  try {
    parseLogLevel("loud");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("expected debug|info|warn|error"),
              std::string::npos);
  }
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(sw.seconds(), 0.015);
}

TEST(StopwatchTest, ResetRestartsClock) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sw.reset();
  EXPECT_LT(sw.seconds(), 0.015);
}

TEST(StopwatchTest, MonotoneNonNegative) {
  Stopwatch sw;
  double last = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double now = sw.seconds();
    EXPECT_GE(now, last);
    last = now;
  }
}

}  // namespace
}  // namespace pushpart
