#include "atlas/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "../support/mutants.hpp"
#include "atlas/builder.hpp"
#include "support/fnv.hpp"

namespace pushpart {
namespace {

std::shared_ptr<PlanAtlas> builtAtlas() {
  AtlasBuildOptions options;
  options.spec.prMin = 1.0;
  options.spec.prMax = 6.0;
  options.spec.prSteps = 6;
  options.spec.rrMin = 1.0;
  options.spec.rrMax = 3.0;
  options.spec.rrSteps = 3;
  options.info.n = 48;
  options.threads = 1;
  return buildAtlas(options);
}

std::string savedText(const PlanAtlas& atlas) {
  std::ostringstream os;
  saveAtlas(atlas, os);
  return os.str();
}

TEST(AtlasIoTest, SaveLoadSaveIsByteIdentical) {
  const auto atlas = builtAtlas();
  const std::string first = savedText(*atlas);

  std::istringstream is(first);
  const AtlasLoadReport report = tryLoadAtlas(is);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.loaded, atlas->solvedCells());

  // A loaded cell must certify exactly like the freshly built one: the
  // round trip preserves every byte, including %.17g double digits.
  EXPECT_EQ(savedText(*report.atlas), first);
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 3; ++j)
      if (atlas->spec().validCell(i, j))
        EXPECT_EQ(*report.atlas->cell(i, j), *atlas->cell(i, j));
}

/// Loads `text` with its magic line replaced by `magic`.
AtlasLoadReport loadWithMagic(std::string text, const std::string& magic) {
  const std::string current = "pushpart-atlas v3";
  EXPECT_EQ(text.rfind(current, 0), 0u);
  text.replace(0, current.size(), magic);
  std::istringstream is(text);
  return tryLoadAtlas(is);
}

TEST(AtlasIoTest, FutureVersionIsRefusedWhole) {
  const AtlasLoadReport report =
      loadWithMagic(savedText(*builtAtlas()), "pushpart-atlas v4");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.versionRefused);
  EXPECT_EQ(report.atlas, nullptr);
  EXPECT_FALSE(report.error.empty());
}

TEST(AtlasIoTest, OlderVersionsAreRefusedWhole) {
  // v1 lacks the lower-bound gap and v2 leaves its header unchecked.
  for (const char* magic : {"pushpart-atlas v1", "pushpart-atlas v2"}) {
    const AtlasLoadReport report =
        loadWithMagic(savedText(*builtAtlas()), magic);
    EXPECT_FALSE(report.ok()) << magic;
    EXPECT_TRUE(report.versionRefused) << magic;
    EXPECT_EQ(report.atlas, nullptr) << magic;
  }
}

TEST(AtlasIoTest, GarbageIsRefused) {
  std::istringstream is("this is not an atlas\nat all\n");
  const AtlasLoadReport report = tryLoadAtlas(is);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.atlas, nullptr);
  EXPECT_FALSE(report.error.empty());
}

/// A grid record over `payload` whose checksum verifies.
std::string gridRecord(const std::string& payload) {
  char sum[20];
  std::snprintf(sum, sizeof(sum), "%016llx",
                static_cast<unsigned long long>(fnv1a(payload)));
  return std::string("grid ") + sum + ' ' + payload;
}

/// Loads `text` with its grid line replaced by `grid`.
AtlasLoadReport loadWithGridLine(std::string text, const std::string& grid) {
  const auto begin = text.find("\ngrid ") + 1;
  const auto end = text.find('\n', begin);
  text.replace(begin, end - begin, grid);
  std::istringstream is(text);
  return tryLoadAtlas(is);
}

TEST(AtlasIoTest, NegativeStepCountsRefusedBeforeAllocating) {
  // (-8192) x (-16384) steps is 2^27 cells once multiplied as size_t: the
  // header must be refused by the spec check before any cell is allocated.
  const AtlasLoadReport report = loadWithGridLine(
      savedText(*builtAtlas()), gridRecord("1 20 -8192 1 10 -16384"));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.atlas, nullptr);
  EXPECT_NE(report.error.find("needs >= 2 steps per axis"), std::string::npos)
      << report.error;
}

TEST(AtlasIoTest, WrappedStepProductReportsTheSpecError) {
  // (-1) x 2 steps wraps past vector::max_size(); the error must still name
  // the step count, not the allocation.
  const AtlasLoadReport report = loadWithGridLine(
      savedText(*builtAtlas()), gridRecord("1 20 -1 1 10 2"));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.atlas, nullptr);
  EXPECT_NE(report.error.find("needs >= 2 steps per axis"), std::string::npos)
      << report.error;
}

TEST(AtlasIoTest, OversizedGridIsRefusedBeforeAllocating) {
  // 1025 x 1025 points is one past the 2^20 cap: a checksummed header must
  // not size an allocation the loader cannot bound.
  const AtlasLoadReport report = loadWithGridLine(
      savedText(*builtAtlas()), gridRecord("1 20 1025 1 10 1025"));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.atlas, nullptr);
  EXPECT_NE(report.error.find("grid points"), std::string::npos)
      << report.error;
}

TEST(AtlasIoTest, AnyFlippedHeaderByteRefusesTheFile) {
  // A grid or info line that loaded with a flipped byte would re-map every
  // cell (another ratio span, another n) while reading clean. Each byte of
  // both lines, its newline included, is flipped in turn.
  const std::string text = savedText(*builtAtlas());
  const auto begin = text.find("\ngrid ") + 1;
  const auto infoBegin = text.find("\ninfo ") + 1;
  const auto end = text.find('\n', infoBegin) + 1;
  ASSERT_LT(begin, infoBegin);
  for (std::size_t pos = begin; pos < end; ++pos) {
    for (const char mask : {'\x01', '\x20'}) {
      std::string flipped = text;
      flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
      std::istringstream is(flipped);
      const AtlasLoadReport report = tryLoadAtlas(is);
      EXPECT_FALSE(report.ok())
          << "byte " << pos << " mask " << static_cast<int>(mask);
      EXPECT_EQ(report.atlas, nullptr) << "byte " << pos;
    }
  }
}

TEST(AtlasIoTest, LostLinesAreCountedAsSkipped) {
  // A file cut after a complete line holds only valid records; the declared
  // cell count is what tells the loader the rest is gone.
  const auto atlas = builtAtlas();
  const std::string text = savedText(*atlas);
  const std::size_t cells = atlas->solvedCells();
  ASSERT_GT(cells, 2u);
  const auto countEnd = text.find('\n', text.find("\ncells ") + 1) + 1;
  std::size_t cut = countEnd;
  for (std::size_t kept = 0; kept < cells; ++kept) {
    std::istringstream is(text.substr(0, cut));
    const AtlasLoadReport report = tryLoadAtlas(is);
    ASSERT_TRUE(report.ok()) << report.error;
    EXPECT_FALSE(report.clean()) << kept << " cells kept";
    EXPECT_EQ(report.loaded, kept);
    EXPECT_EQ(report.skipped, cells - kept) << kept << " cells kept";
    cut = text.find('\n', cut) + 1;
  }
  EXPECT_EQ(cut, text.size());  // every cut short of the whole file ran
}

TEST(AtlasIoTest, CorruptCellIsSkippedAndBoundariesRederived) {
  const auto atlas = builtAtlas();
  std::string text = savedText(*atlas);

  // Flip one digit of the first cell record's checksum.
  const auto pos = text.find("\nc ");
  ASSERT_NE(pos, std::string::npos);
  char& digit = text[pos + 3];  // first hex digit of the fnv1a field
  digit = (digit == '0') ? '1' : '0';

  std::istringstream is(text);
  const AtlasLoadReport report = tryLoadAtlas(is);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(report.loaded, atlas->solvedCells() - 1);
  EXPECT_EQ(report.atlas->solvedCells(), atlas->solvedCells() - 1);

  // Boundary flags were re-derived from the cells that survived: marking
  // again must be a no-op.
  const auto derived = report.atlas->boundaryCells();
  report.atlas->markBoundaries();
  EXPECT_EQ(report.atlas->boundaryCells(), derived);
}

TEST(AtlasIoTest, SavedBytesArePinned) {
  // The atlas format is v3 on disk: the fixture must save the same bytes as
  // every earlier build of v3 did.
  const std::string text = savedText(*builtAtlas());
  EXPECT_EQ(fnv1a(text), 0xcc85b2fb14a6dd38ull) << text;
}

TEST(AtlasIoTest, MutationSweepLoadsOnlySavedCellsAndNeverHidesAnEdit) {
  // Every single-bit flip, byte deletion, duplication and truncation, and
  // every dropped or duplicated line of a saved atlas: an accepted mutant
  // has the saved grid and build, each cell it loads is the saved one (up
  // to the re-derived boundary flag), and it loads clean() only when it
  // differs in blank lines, a '\r' or the final newline alone.
  const auto atlas = builtAtlas();
  const AtlasGridSpec& spec = atlas->spec();
  const std::string text = savedText(*atlas);
  const std::string header = text.substr(0, text.find("\ncells ") + 1);
  const std::vector<std::string> mutants = testing_mutants::mutantsOf(text);
  EXPECT_EQ(mutants.size(), 17847u);
  std::size_t foreign = 0, hidden = 0;
  for (const std::string& mutant : mutants) {
    std::istringstream is(mutant);
    const AtlasLoadReport report = tryLoadAtlas(is);
    if (report.ok()) {
      if (savedText(*report.atlas).rfind(header, 0) != 0) ++foreign;
      for (int i = 0; i < spec.prSteps; ++i)
        for (int j = 0; j < spec.rrSteps; ++j) {
          const std::optional<AtlasCell> got = report.atlas->cell(i, j);
          if (!got || !got->solved) continue;
          AtlasCell want = *atlas->cell(i, j);
          want.boundary = got->boundary;
          if (!(*got == want)) ++foreign;
        }
    }
    if (report.clean() && testing_mutants::tolerantForm(mutant) !=
                              testing_mutants::tolerantForm(text) &&
        hidden++ == 0)
      ADD_FAILURE() << "an edited atlas loaded clean():\n" << mutant;
  }
  EXPECT_EQ(foreign, 0u);
  EXPECT_EQ(hidden, 0u);
}

TEST(AtlasIoTest, PathRoundTripsAtomically) {
  const auto atlas = builtAtlas();
  const std::string path = ::testing::TempDir() + "/pushpart_io_test.atlas";
  const std::size_t written = saveAtlas(*atlas, path);
  EXPECT_EQ(written, atlas->solvedCells());

  const AtlasLoadReport report = tryLoadAtlas(path);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(savedText(*report.atlas), savedText(*atlas));
  std::remove(path.c_str());
}

TEST(AtlasIoTest, UnreadablePathReportsError) {
  const AtlasLoadReport report =
      tryLoadAtlas(::testing::TempDir() + "/pushpart_no_such.atlas");
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.versionRefused);
  EXPECT_FALSE(report.error.empty());
}

}  // namespace
}  // namespace pushpart
