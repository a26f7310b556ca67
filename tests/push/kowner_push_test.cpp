// The push engine on k-owner partitions (paper §XI): the same walk, guards
// and legality ladder as at three owners, with the owners and the fastest
// owner read from the state.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "grid/builder.hpp"
#include "push/push.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

TEST(KOwnerPushTest, OnlySlowOwnersArePushed) {
  Partition q(6, 4);
  EXPECT_THROW(tryPush(q, q.fastest(), Direction::Down), CheckError);
  EXPECT_THROW(tryPush(q, procFromIndex(4), Direction::Down), CheckError);
  EXPECT_NO_THROW(tryPush(q, procFromIndex(2), Direction::Down));
}

TEST(KOwnerPushTest, SimpleDownPushOnFourOwners) {
  // Owner 1 holds a ragged column; the stray top element drops inward.
  Partition q(5, 4);
  const Proc x = procFromIndex(1);
  q.set(0, 0, x);
  q.set(0, 1, x);
  q.set(1, 0, x);
  q.set(2, 0, x);
  const auto before = q.volumeOfCommunication();
  const auto out = tryPush(q, x, Direction::Down);
  ASSERT_TRUE(out.applied);
  EXPECT_LT(q.volumeOfCommunication(), before);
  EXPECT_EQ(q.rowCount(x, 0), 0);
  EXPECT_EQ(q.count(x), 4);
  q.validateCounters();
}

TEST(KOwnerPushTest, FailedPushLeavesGridUntouched) {
  Partition q(5, 4);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) q.set(i, j, procFromIndex(0));  // solid square
  const auto original = q;
  for (Direction d : kAllDirections) {
    EXPECT_FALSE(tryPush(q, procFromIndex(0), d).applied) << directionName(d);
    EXPECT_EQ(q, original);
  }
}

using KOwnerPushParam = std::tuple<const char*, std::uint64_t>;

class KOwnerPushPropertyTest
    : public ::testing::TestWithParam<KOwnerPushParam> {};

TEST_P(KOwnerPushPropertyTest, PushInvariantsHold) {
  const auto [speedStr, seed] = GetParam();
  const auto speeds = NSpeeds::parse(speedStr);
  Rng rng(seed);
  auto q = randomPartition(20, speeds, rng);
  const int k = q.owners();
  const auto counts = speeds.elementCounts(20);
  for (int step = 0; step < 150; ++step) {
    const Proc active = procFromIndex(
        static_cast<int>(rng.below(static_cast<std::uint64_t>(k - 1))));
    const Direction dir = kAllDirections[rng.below(4)];
    const auto voc = q.volumeOfCommunication();
    std::vector<Rect> rects;
    for (int x = 0; x + 1 < k; ++x)
      rects.push_back(q.enclosingRect(procFromIndex(x)));
    const auto out = tryPush(q, active, dir);
    ASSERT_LE(q.volumeOfCommunication(), voc);
    for (int x = 0; x < k; ++x)
      ASSERT_EQ(q.count(procFromIndex(x)), counts[static_cast<std::size_t>(x)]);
    if (out.applied) {
      for (int x = 0; x + 1 < k; ++x)
        ASSERT_TRUE(rects[static_cast<std::size_t>(x)].contains(
            q.enclosingRect(procFromIndex(x))))
            << "owner " << x << " rect grew";
    }
  }
  q.validateCounters();
}

INSTANTIATE_TEST_SUITE_P(
    SpeedVectors, KOwnerPushPropertyTest,
    ::testing::Combine(::testing::Values("4:1", "3:2:1", "8:4:2:1",
                                         "5:3:2:1:1"),
                       ::testing::Values(3u, 17u)));

TEST(KOwnerPushTest, ThreeOwnerSpeedsPushLikeTheRatio) {
  // Three owners from NSpeeds are the paper's R, S and P: the same start and
  // the same pushes as the Ratio path, cell for cell.
  NSpeeds speeds;
  speeds.speeds = {3, 2, 1};
  Rng a(9), b(9);
  Partition q = randomPartition(24, speeds, a);
  Partition r = randomPartition(24, Ratio{3, 2, 1}, b);
  ASSERT_EQ(q, r);
  for (int step = 0; step < 200; ++step) {
    const Proc active = kSlowProcs[a.below(2)];
    const Direction dir = kAllDirections[a.below(4)];
    const auto oq = tryPush(q, active, dir);
    const auto orr = tryPush(r, active, dir);
    ASSERT_EQ(oq.applied, orr.applied);
    ASSERT_EQ(q, r);
  }
}

// --- Golden replay ---------------------------------------------------------
//
// tests/corpus/kary_push_golden.txt was written by the k-owner engine this
// one replaced (a separate k-ary grid and push, where 0 was the fastest
// owner). Each case holds a scattered start, a stream of (active, direction)
// attempts with their outcomes, and the final cells, all by fastest-first
// speed rank; ownerOfRank maps them onto this engine's owner ids.

struct GoldenAttempt {
  int activeRank = 0;
  Direction dir = Direction::Down;
  bool applied = false;
  int type = 0;
  std::int64_t vocAfter = 0;
  int elementsMoved = 0;
};

struct GoldenCase {
  std::string speeds;
  std::uint64_t seed = 0;
  int n = 0;
  std::vector<std::string> start, final;
  std::vector<GoldenAttempt> attempts;
};

Direction directionFromLetter(char c) {
  switch (c) {
    case 'D': return Direction::Down;
    case 'U': return Direction::Up;
    case 'L': return Direction::Left;
    case 'R': return Direction::Right;
  }
  throw std::runtime_error(std::string("bad direction letter ") + c);
}

std::vector<std::string> readRows(std::istream& in, int n) {
  std::vector<std::string> rows(static_cast<std::size_t>(n));
  for (auto& row : rows) in >> row;
  return rows;
}

std::vector<GoldenCase> loadGolden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<GoldenCase> cases;
  std::string word;
  while (in >> word) {
    if (word[0] == '#') {
      std::getline(in, word);
      continue;
    }
    if (word != "case")
      throw std::runtime_error("expected 'case', got " + word);
    GoldenCase c;
    in >> c.speeds >> c.seed >> c.n >> word;  // "start"
    c.start = readRows(in, c.n);
    std::size_t count = 0;
    in >> word >> count;  // "attempts" <count>
    c.attempts.resize(count);
    for (GoldenAttempt& a : c.attempts) {
      char dir = 0;
      int applied = 0;
      in >> a.activeRank >> dir >> applied >> a.type >> a.vocAfter >>
          a.elementsMoved;
      a.dir = directionFromLetter(dir);
      a.applied = applied != 0;
    }
    in >> word;  // "final"
    c.final = readRows(in, c.n);
    in >> word;  // "end"
    if (!in || word != "end") throw std::runtime_error("truncated case");
    cases.push_back(std::move(c));
  }
  return cases;
}

/// The k-owner partition a golden grid of speed-rank digits spells.
Partition fromRanks(const std::vector<std::string>& rows, int owners) {
  const int n = static_cast<int>(rows.size());
  Partition q(n, owners);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      q.set(i, j,
            ownerOfRank(rows[static_cast<std::size_t>(i)]
                            [static_cast<std::size_t>(j)] - '0',
                        owners));
  return q;
}

TEST(KOwnerPushGoldenTest, ReplaysTheDeletedKAryEngine) {
  const auto cases =
      loadGolden(std::string(PUSHPART_CORPUS_DIR) + "/kary_push_golden.txt");
  ASSERT_EQ(cases.size(), 36u);
  int applied = 0;
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE("speeds " + c.speeds + " seed " + std::to_string(c.seed) +
                 " n " + std::to_string(c.n));
    const NSpeeds speeds = NSpeeds::parse(c.speeds);
    const int k = speeds.owners();
    Partition q = fromRanks(c.start, k);
    Rng rng(c.seed);
    ASSERT_EQ(randomPartition(c.n, speeds, rng), q) << "scattered start";
    for (std::size_t a = 0; a < c.attempts.size(); ++a) {
      const GoldenAttempt& want = c.attempts[a];
      const PushOutcome got =
          tryPush(q, ownerOfRank(want.activeRank, k), want.dir);
      ASSERT_EQ(got.applied, want.applied) << "attempt " << a;
      ASSERT_EQ(static_cast<int>(got.type), want.type) << "attempt " << a;
      ASSERT_EQ(got.vocAfter, want.vocAfter) << "attempt " << a;
      ASSERT_EQ(got.elementsMoved, want.elementsMoved) << "attempt " << a;
      applied += got.applied ? 1 : 0;
    }
    ASSERT_EQ(q, fromRanks(c.final, k)) << "final cells";
    q.validateCounters();
  }
  EXPECT_GT(applied, 1000);  // the stream exercises the engine, not no-ops
}

}  // namespace
}  // namespace pushpart
