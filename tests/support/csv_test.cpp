#include "support/csv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvTest : public ::testing::Test {
 protected:
  // Named after the running case: ctest runs each case as its own process,
  // so cases run in parallel must not share one file.
  std::string path_ =
      ::testing::TempDir() + "/pushpart_csv_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter w(path_, {"a", "b"});
    w.row({std::vector<std::string>{"1", "2"}});
    w.row({3.5, 4.0});
  }
  EXPECT_EQ(slurp(path_), "a,b\n1,2\n3.5,4\n");
}

TEST_F(CsvTest, QuotesSpecialCharacters) {
  {
    CsvWriter w(path_, {"text"});
    w.row(std::vector<std::string>{"has,comma"});
    w.row(std::vector<std::string>{"has\"quote"});
  }
  EXPECT_EQ(slurp(path_), "text\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST_F(CsvTest, ArityMismatchThrows) {
  CsvWriter w(path_, {"a", "b"});
  EXPECT_THROW(w.row(std::vector<std::string>{"only-one"}), CheckError);
}

TEST(CsvNullTest, DisabledWriterDiscardsRows) {
  CsvWriter w;  // no file
  EXPECT_FALSE(w.enabled());
  w.row(std::vector<std::string>{"anything", "goes"});  // must not throw
  w.row({1.0, 2.0, 3.0});
}

TEST_F(CsvTest, CloseReportsWhetherEveryRowWasWritten) {
  CsvWriter w(path_, {"a"});
  w.row({1.0});
  EXPECT_TRUE(w.close());
  EXPECT_EQ(slurp(path_), "a\n1\n");
  EXPECT_TRUE(CsvWriter().close());
}

TEST(CsvFullTest, FailedWritesAreReportedOnClose) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  CsvWriter w("/dev/full", {"a", "b"});
  w.row({1.0, 2.0});
  testing::internal::CaptureStderr();
  EXPECT_FALSE(w.close());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "cannot write /dev/full\n");
}

TEST(CsvPathTest, BadPathFailsOnClose) {
  // An unopenable path is reported where a failed write is: close() prints
  // "cannot write <path>" and returns false, and the rows go nowhere.
  const std::string path = "/nonexistent-dir-xyz/file.csv";
  CsvWriter w(path, {"a"});
  EXPECT_FALSE(w.enabled());
  w.row({1.0});
  testing::internal::CaptureStderr();
  EXPECT_FALSE(w.close());
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "cannot write " + path + "\n");
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(FormatNumberTest, Integers) {
  EXPECT_EQ(formatNumber(0), "0");
  EXPECT_EQ(formatNumber(42), "42");
  EXPECT_EQ(formatNumber(-7), "-7");
  EXPECT_EQ(formatNumber(1e6), "1000000");
}

TEST(FormatNumberTest, Decimals) {
  EXPECT_EQ(formatNumber(2.5), "2.5");
  EXPECT_EQ(formatNumber(0.125), "0.125");
}

TEST(FormatNumberTest, SpecialValues) {
  EXPECT_EQ(formatNumber(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(formatNumber(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(formatNumber(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST(FormatNumberTest, MatchesPrintf) {
  // formatNumber writes with <charconv>; its bytes must stay those of the
  // printf formulation it replaced ("%.0f" for integers below 9e15, "%.6g"
  // otherwise): CSV rows, tables, Ratio::str() and the plan keys' large
  // speeds are spelled with it.
  const auto printfForm = [](double v) -> std::string {
    if (std::isnan(v)) return "nan";
    if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
    char buf[40];
    if (v == std::floor(v) && std::fabs(v) < 9.0e15)
      std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
      std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  };
  std::vector<double> values = {
      0.0, -0.0, 0.5, -0.5, 1e-50, 9e15 - 1.0, 9e15, 9e15 + 2.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min()};
  Rng rng(7);
  for (int i = 0; i < 100'000; ++i) {
    const double sign = rng.chance(0.5) ? -1.0 : 1.0;
    // Magnitudes from 1e-50 to 1e50, and integers from 1 to 1e17, which
    // straddles the 9e15 switch from "%.0f" to "%.6g".
    values.push_back(sign * std::pow(10.0, rng.real() * 100.0 - 50.0));
    values.push_back(sign * std::round(std::pow(10.0, rng.real() * 17.0)));
  }
  for (std::int64_t k = -1000; k <= 1000; ++k)
    values.push_back(9e15 + 2.0 * static_cast<double>(k));
  int mismatches = 0;
  for (const double v : values)
    if (formatNumber(v) != printfForm(v) && ++mismatches <= 5)
      ADD_FAILURE() << formatNumber(v) << " vs " << printfForm(v);
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace pushpart
