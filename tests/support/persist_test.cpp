#include "support/persist.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace pushpart {
namespace {

const RecordFormat kToy{"toy", "toy-format v1", {"head"}, "items", "i"};

const std::vector<std::string> kItems = {"a 1", "b 2.5", "c -3"};

std::string savedToy(const std::vector<std::string>& items = kItems,
                     const std::string& header = joinFields(7, 0.1, true)) {
  std::ostringstream os;
  writeRecords(os, kToy, {header}, items.size(),
               [&](std::size_t k) { return items[k]; });
  return os.str();
}

struct ToyLoad {
  LoadReport report;
  std::vector<std::string> header;
  std::vector<std::string> items;
};

/// Loads `text` as a toy document; the item "refuse" is refused, and a
/// header "throw" refuses the file.
ToyLoad loadToy(const std::string& text) {
  ToyLoad out;
  std::istringstream is(text);
  out.report = readRecords(
      is, kToy,
      [&](const std::vector<std::string>& header) {
        if (header[0] == "throw") throw std::runtime_error("header refused");
        out.header = header;
      },
      [&](const std::string& payload) {
        if (payload == "refuse") return false;
        out.items.push_back(payload);
        return true;
      });
  return out;
}

/// `text` with its line `index` (0-based) replaced by `line`.
std::string withLine(const std::string& text, int index,
                     const std::string& line) {
  std::size_t begin = 0;
  for (int k = 0; k < index; ++k) begin = text.find('\n', begin) + 1;
  const std::size_t end = text.find('\n', begin);
  return text.substr(0, begin) + line + text.substr(end);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(PersistTest, RoundTripIsByteIdentical) {
  const std::string text = savedToy();
  EXPECT_EQ(text.rfind("toy-format v1\nhead ", 0), 0u) << text;
  EXPECT_NE(text.find("\nitems 3\ni "), std::string::npos) << text;

  const ToyLoad loaded = loadToy(text);
  EXPECT_TRUE(loaded.report.clean()) << loaded.report.error;
  EXPECT_EQ(loaded.report.loaded, 3u);
  ASSERT_EQ(loaded.header.size(), 1u);
  EXPECT_EQ(loaded.header[0], "7 0.10000000000000001 1");
  EXPECT_EQ(loaded.items, kItems);
  EXPECT_EQ(savedToy(loaded.items), text);
}

TEST(PersistTest, WriterRefusesAFailedStreamOrAWrongHeader) {
  const auto item = [](std::size_t) { return std::string("a"); };
  std::ostringstream failed;
  failed.setstate(std::ios::badbit);
  EXPECT_THROW(writeRecords(failed, kToy, {"h"}, 1, item), std::runtime_error);
  std::ostringstream os;
  EXPECT_THROW(writeRecords(os, kToy, {}, 1, item), CheckError);
}

TEST(PersistTest, FieldsRoundTripBitForBit) {
  const double third = 1.0 / 3.0, sum = 0.1 + 0.2;
  const std::string payload =
      joinFields(third, sum, -0.0, std::int64_t{-5}, false, "key");
  double a = 0, b = 0, c = 1;
  std::int64_t d = 0;
  bool e = true;
  std::string f;
  ASSERT_TRUE(parseFields(payload, a, b, c, d, e, f)) << payload;
  EXPECT_EQ(a, third);
  EXPECT_EQ(b, sum);
  EXPECT_TRUE(c == 0.0 && std::signbit(c));
  EXPECT_EQ(d, -5);
  EXPECT_FALSE(e);
  EXPECT_EQ(f, "key");

  int x = 0, y = 0;
  bool flag = false;
  EXPECT_FALSE(parseFields("1", x, y)) << "missing field";
  EXPECT_FALSE(parseFields("1 2 3", x, y)) << "extra field";
  EXPECT_FALSE(parseFields("1 z", x, y)) << "malformed field";
  EXPECT_FALSE(parseFields("2", flag)) << "a bool is 0 or 1";
}

TEST(PersistTest, VersionMismatchRefusesTheWholeFile) {
  for (const char* magic : {"toy-format v2", "toy-format v0", "", "garbage"}) {
    const ToyLoad loaded = loadToy(withLine(savedToy(), 0, magic));
    EXPECT_TRUE(loaded.report.versionRefused) << magic;
    EXPECT_FALSE(loaded.report.ok()) << magic;
    EXPECT_NE(loaded.report.error.find("unsupported toy version"),
              std::string::npos)
        << loaded.report.error;
    EXPECT_TRUE(loaded.header.empty() && loaded.items.empty()) << magic;
  }
}

TEST(PersistTest, BadHeaderRecordRefusesTheWholeFile) {
  const std::string text = savedToy();
  std::string flipped = text;
  flipped[text.find("\nhead ") + 23] = '8';  // the payload's first field
  const std::string expected[] = {"missing or corrupt head record",
                                  "missing or corrupt head record",
                                  "header refused"};
  const std::string inputs[] = {flipped, withLine(text, 1, ""),
                                savedToy(kItems, "throw")};
  for (int k = 0; k < 3; ++k) {
    const ToyLoad loaded = loadToy(inputs[k]);
    EXPECT_FALSE(loaded.report.ok()) << k;
    EXPECT_FALSE(loaded.report.versionRefused) << k;
    EXPECT_EQ(loaded.report.error, expected[k]) << k;
    EXPECT_TRUE(loaded.items.empty()) << k;
  }
}

TEST(PersistTest, ChecksumFailureOrRefusalSkipsOneRecord) {
  const std::string text = savedToy();
  std::string flipped = text;
  flipped[text.rfind("b 2.5")] = 'd';
  const ToyLoad corrupt = loadToy(flipped);
  EXPECT_TRUE(corrupt.report.ok());
  EXPECT_FALSE(corrupt.report.clean());
  EXPECT_EQ(corrupt.report.loaded, 2u);
  EXPECT_EQ(corrupt.report.skipped, 1u);
  EXPECT_EQ(corrupt.items, (std::vector<std::string>{"a 1", "c -3"}));

  const ToyLoad refused = loadToy(savedToy({"a 1", "refuse", "c -3"}));
  EXPECT_EQ(refused.report.loaded, 2u);
  EXPECT_EQ(refused.report.skipped, 1u);
}

TEST(PersistTest, MissingRecordsAreCountedAsSkipped) {
  const std::string text = savedToy();
  const std::size_t lastLine = text.rfind('\n', text.size() - 2) + 1;
  const ToyLoad cut = loadToy(text.substr(0, lastLine));
  EXPECT_EQ(cut.report.loaded, 2u);
  EXPECT_EQ(cut.report.skipped, 1u);

  // Without its count line, the file shows one loss: that line.
  const std::size_t countLine = text.find("\nitems ") + 1;
  const ToyLoad noCount = loadToy(text.substr(0, countLine));
  EXPECT_TRUE(noCount.report.ok());
  EXPECT_EQ(noCount.report.skipped, 1u);
}

TEST(PersistTest, ExcessRecordsCostOneSkippedLine) {
  const std::string text = savedToy();
  const std::size_t lastLine = text.rfind('\n', text.size() - 2) + 1;
  const ToyLoad doubled = loadToy(text + text.substr(lastLine));
  EXPECT_TRUE(doubled.report.ok());
  EXPECT_FALSE(doubled.report.clean());
  EXPECT_EQ(doubled.report.loaded, 4u);
  EXPECT_EQ(doubled.report.skipped, 1u);
}

TEST(PersistTest, CountLineIsParsedExactly) {
  const std::string text = savedToy();
  EXPECT_TRUE(loadToy(withLine(text, 2, "items 3")).report.clean());
  for (const char* edited :
       {"items 2", "items 0", "items 4", "items  3", "items 03", "items +3",
        "items 3 ", " items 3", "items\t3", "items 3x", "items -3", "items",
        "item 3", "items 99999999999999999999999"}) {
    const ToyLoad loaded = loadToy(withLine(text, 2, edited));
    EXPECT_TRUE(loaded.report.ok()) << edited;
    EXPECT_FALSE(loaded.report.clean()) << edited;
    EXPECT_EQ(loaded.report.loaded, 3u) << edited;
    EXPECT_EQ(loaded.report.skipped, 1u) << edited;
  }
}

TEST(PersistTest, BlankLinesCarriageReturnsAndTheLastNewlineAreTolerated) {
  std::string crlf;
  for (const char c : savedToy())
    crlf += c == '\n' ? "\r\n\n" : std::string(1, c);
  crlf.erase(crlf.size() - 3);  // and no newline after the last record
  const ToyLoad loaded = loadToy(crlf);
  EXPECT_TRUE(loaded.report.clean()) << loaded.report.error;
  EXPECT_EQ(loaded.items, kItems);
}

TEST(PersistTest, LoadFileReportsAnUnopenablePath) {
  bool ran = false;
  const LoadReport report = loadFile<LoadReport>(
      ::testing::TempDir() + "/pushpart_persist_no_such_file",
      [&](std::istream&) {
        ran = true;
        return LoadReport{};
      });
  EXPECT_FALSE(ran);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.versionRefused);
  EXPECT_NE(report.error.find("cannot open"), std::string::npos);
}

TEST(PersistTest, PublishReplacesTheFileAndLeavesNoTmp) {
  const std::string path = ::testing::TempDir() + "/pushpart_persist_publish";
  publishFile(path, "first\n");
  EXPECT_EQ(readFile(path), "first\n");
  publishFile(path, savedToy());
  EXPECT_EQ(readFile(path), savedToy());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(PersistTest, PublishIntoAMissingDirectoryThrowsAndCreatesNothing) {
  const std::string dir = ::testing::TempDir() + "/pushpart_persist_no_dir";
  std::filesystem::remove_all(dir);
  EXPECT_THROW(publishFile(dir + "/file", "bytes\n"), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(PersistTest, ShortWriteFailsAndKeepsTheOldFile) {
  // A child process whose file-size limit is below the payload: its first
  // write() returns short, the retry fails with EFBIG (SIGXFSZ ignored), and
  // publishFile must throw before the rename. The child reports through its
  // exit code: 0 for the expected error, 1 for another message, 2 when the
  // publish succeeded, 3 when the limit could not be set.
  const std::string path = ::testing::TempDir() + "/pushpart_persist_short";
  publishFile(path, "old bytes\n");
  const std::string payload(300, 'x');
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit limit{};
    if (::getrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(3);
    limit.rlim_cur = 100;
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(3);
    try {
      publishFile(path, payload);
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      const bool expected =
          what.find("cannot write " + path + ".tmp") != std::string::npos &&
          what.find(std::strerror(EFBIG)) != std::string::npos;
      ::_exit(expected ? 0 : 1);
    }
    ::_exit(2);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(readFile(path), "old bytes\n");
  std::filesystem::remove(path);
}

TEST(PersistTest, FailedRenameRemovesTheTmpFile) {
  // A non-empty directory at the destination makes the rename fail after
  // the tmp file was written and synced.
  const std::string path = ::testing::TempDir() + "/pushpart_persist_dir";
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path + "/occupied");
  EXPECT_THROW(publishFile(path, "bytes\n"), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(path + "/occupied"));
  std::filesystem::remove_all(path);
}

}  // namespace
}  // namespace pushpart
