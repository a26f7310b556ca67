#include "support/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/check.hpp"

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

}  // namespace
}  // namespace pushpart
