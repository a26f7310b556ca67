#include "grid/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "grid/builder.hpp"
#include "shapes/candidates.hpp"
#include "support/rng.hpp"
#include "verify/generators.hpp"
#include "verify/invariants.hpp"
#include "../support/mutants.hpp"

namespace pushpart {
namespace {

TEST(SerializeTest, StreamRoundTrip) {
  Rng rng(4);
  const auto q = randomPartition(12, Ratio{3, 2, 1}, rng);
  std::stringstream ss;
  savePartition(q, ss);
  const auto back = loadPartition(ss);
  EXPECT_EQ(q, back);
}

TEST(SerializeTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/pushpart_serialize.txt";
  Rng rng(4);
  const auto q = randomPartition(9, Ratio{2, 1, 1}, rng);
  savePartition(q, path);
  const auto back = loadPartition(path);
  EXPECT_EQ(q, back);
  std::remove(path.c_str());
}

TEST(SerializeTest, BadMagicThrows) {
  std::stringstream ss("not-a-partition\nn 3\nPPP\nPPP\nPPP\n");
  EXPECT_THROW(loadPartition(ss), std::runtime_error);
}

TEST(SerializeTest, BadSizeThrows) {
  std::stringstream ss("pushpart-partition v1\nn -2\n");
  EXPECT_THROW(loadPartition(ss), std::runtime_error);
}

TEST(SerializeTest, TruncatedGridThrows) {
  std::stringstream ss("pushpart-partition v1\nn 3\nPPP\nPPP\n");
  EXPECT_THROW(loadPartition(ss), std::runtime_error);
}

std::string loadErrorMessage(const std::string& text) {
  std::stringstream ss(text);
  try {
    loadPartition(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";  // no exception — the caller's EXPECT on the message will fail
}

TEST(SerializeTest, InvalidCellCharacterNamesThePosition) {
  const std::string msg =
      loadErrorMessage("pushpart-partition v1\nn 2\nPR\nPX\n");
  EXPECT_NE(msg.find("invalid cell 'X'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("row 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 1"), std::string::npos) << msg;
}

TEST(SerializeTest, NonPositiveSizeRejected) {
  EXPECT_NE(loadErrorMessage("pushpart-partition v1\nn 0\n")
                .find("must be positive"),
            std::string::npos);
  EXPECT_NE(loadErrorMessage("pushpart-partition v1\nn -3\n")
                .find("must be positive"),
            std::string::npos);
}

TEST(SerializeTest, AbsurdlyLargeSizeRejectedBeforeAllocation) {
  // A hostile header must not drive an O(n²) allocation.
  EXPECT_NE(loadErrorMessage("pushpart-partition v1\nn 99999999\nPPP\n")
                .find("exceeds the supported maximum"),
            std::string::npos);
}

TEST(SerializeTest, NonNumericOrJunkSizeLineRejected) {
  EXPECT_NE(loadErrorMessage("pushpart-partition v1\nn three\nPPP\n")
                .find("bad size line"),
            std::string::npos);
  EXPECT_NE(loadErrorMessage("pushpart-partition v1\nm 3\nPPP\n")
                .find("bad size line"),
            std::string::npos);
  EXPECT_NE(loadErrorMessage("pushpart-partition v1\nn 3 junk\nPPP\n")
                .find("trailing junk"),
            std::string::npos);
  // Only the spelling savePartition writes reads: one space, plain digits.
  for (const char* size : {"n  3", "n\t3", "n 03", "n +3", " n 3"})
    EXPECT_NE(loadErrorMessage(std::string("pushpart-partition v1\n") + size +
                               "\nPPP\nPPP\nPPP\n")
                  .find("bad size line"),
              std::string::npos)
        << size;
}

TEST(SerializeTest, WrongRowLengthNamesTheRow) {
  const std::string msg =
      loadErrorMessage("pushpart-partition v1\nn 3\nPPP\nPP\nPPP\n");
  EXPECT_NE(msg.find("row 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("has 2 cells, expected 3"), std::string::npos) << msg;
}

TEST(SerializeTest, TruncatedGridNamesTheShortfall) {
  const std::string msg =
      loadErrorMessage("pushpart-partition v1\nn 3\nPPP\nPPP\n");
  EXPECT_NE(msg.find("got 2 of 3 rows"), std::string::npos) << msg;
}

TEST(SerializeTest, CrlfAndTrailingBlanksAccepted) {
  std::stringstream ss("pushpart-partition v1\nn 2 \r\nPR\r\nPP \n");
  const auto q = loadPartition(ss);
  EXPECT_EQ(q.n(), 2);
  EXPECT_EQ(q.at(0, 1), Proc::R);
}

TEST(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(loadPartition(std::string("/no/such/file.txt")),
               std::runtime_error);
}

// Property: save→load→save is byte-identical for arbitrary generated
// partitions — every style the harness produces, across sizes and ratios.
TEST(SerializePropertyTest, RoundTripIsByteIdenticalForGeneratedPartitions) {
  Rng rng(2024);
  for (int i = 0; i < 60; ++i) {
    const Ratio ratio = genRatio(rng);
    const int n = genSmallN(rng, 3, 48);
    const GenStyle style = genStyle(rng);
    const Partition q = genPartition(style, n, ratio, rng);

    std::stringstream first;
    savePartition(q, first);
    const Partition back = loadPartition(first);
    EXPECT_EQ(q, back) << "n=" << n << " style=" << genStyleName(style);
    std::stringstream second;
    savePartition(back, second);
    EXPECT_EQ(first.str(), second.str())
        << "n=" << n << " style=" << genStyleName(style);

    // The shared checker agrees (it is what the verify suite runs).
    const CheckReport report = checkSerializeRoundTrip(q);
    EXPECT_TRUE(report.ok()) << report.str();
  }
}

// Property: corrupting any single cell character to junk is rejected, and
// the error names the exact (row, column) of the corruption.
TEST(SerializePropertyTest, SingleCellCorruptionIsRejectedWithPosition) {
  Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    const int n = genSmallN(rng, 3, 16);
    const Partition q = randomPartition(n, Ratio{3, 2, 1}, rng);
    std::stringstream ss;
    savePartition(q, ss);
    std::string text = ss.str();

    const int row = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    const int col = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    // Grid rows start after the two header lines; each row is n cells + '\n'.
    const std::size_t header = text.find('\n', text.find('\n') + 1) + 1;
    text[header + static_cast<std::size_t>(row) *
                      static_cast<std::size_t>(n + 1) +
         static_cast<std::size_t>(col)] = '?';

    const std::string msg = loadErrorMessage(text);
    EXPECT_NE(msg.find("invalid cell '?'"), std::string::npos) << text;
    EXPECT_NE(msg.find("row " + std::to_string(row)), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("column " + std::to_string(col)), std::string::npos)
        << msg;
  }
}

// Property: truncating the serialized text anywhere strictly inside the
// grid body is always rejected (never silently accepted as a smaller grid).
TEST(SerializePropertyTest, AnyTruncationInsideTheGridIsRejected) {
  Rng rng(7);
  const Partition q = randomPartition(8, Ratio{2, 1, 1}, rng);
  std::stringstream ss;
  savePartition(q, ss);
  const std::string text = ss.str();
  const std::size_t header = text.find('\n', text.find('\n') + 1) + 1;
  for (std::size_t cut = header; cut < text.size() - 1; cut += 7) {
    std::stringstream truncated(text.substr(0, cut));
    EXPECT_THROW(loadPartition(truncated), std::runtime_error)
        << "cut at " << cut;
  }
}

/// The first `lines` lines of `text`, each without the trailing '\r',
/// spaces and tabs the loader ignores, newline-terminated.
std::string leadingLines(const std::string& text, long long lines) {
  std::istringstream is(text);
  std::string out, line;
  for (long long i = 0; i < lines && std::getline(is, line); ++i) {
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ' || line.back() == '\t'))
      line.pop_back();
    out += line + '\n';
  }
  return out;
}

TEST(SerializeTest, MutationSweepThrowsOrLoadsWhatTheMutantSpells) {
  // Every single-bit flip, byte deletion, duplication and truncation, and
  // every dropped or duplicated line of a saved candidate. loadPartition
  // must either throw std::runtime_error, and nothing else, or return a
  // grid whose saved text is the mutant's magic line, size line and n rows,
  // up to the trailing whitespace the loader ignores; lines after the grid
  // are not read. The format carries no checksum: 'P' and 'R', and 'R' and
  // 'S', are one bit apart in ASCII, so a flipped cell can load a
  // different, valid grid, and a duplicated row shifts the rows below it
  // and pushes the last one out. The sweep counts those loads rather than
  // hide them.
  const Partition q =
      makeCandidate(CandidateShape::kSquareRectangle, 12, Ratio{5, 2, 1});
  std::ostringstream os;
  savePartition(q, os);
  const std::string text = os.str();
  const std::vector<std::string> mutants = testing_mutants::mutantsOf(text);
  EXPECT_EQ(mutants.size(), 2041u);
  std::size_t refused = 0, sameGrid = 0, otherGrid = 0, bad = 0;
  for (const std::string& mutant : mutants) {
    std::istringstream in(mutant);
    try {
      const Partition back = loadPartition(in);
      std::ostringstream saved;
      savePartition(back, saved);
      if (saved.str() != leadingLines(mutant, back.n() + 2)) {
        if (bad++ == 0)
          ADD_FAILURE() << "loaded a grid the mutant does not spell:\n"
                        << mutant;
      } else {
        ++(back == q ? sameGrid : otherGrid);
      }
    } catch (const std::runtime_error&) {
      ++refused;
    } catch (const std::exception& e) {
      if (bad++ == 0) ADD_FAILURE() << "threw " << e.what() << ":\n" << mutant;
    }
  }
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(refused + sameGrid + otherGrid, mutants.size());
  std::cout << mutants.size() << " mutants: " << refused << " refused, "
            << sameGrid << " load the saved grid, " << otherGrid
            << " load another grid\n";
}

}  // namespace
}  // namespace pushpart
