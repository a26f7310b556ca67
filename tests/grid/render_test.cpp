#include "grid/render.hpp"

#include <gtest/gtest.h>

#include "grid/builder.hpp"
#include "support/check.hpp"

namespace pushpart {
namespace {

TEST(RenderTest, ExactWhenSmall) {
  const auto q = fromAscii(
      "PR\n"
      "SP\n");
  EXPECT_EQ(renderAscii(q, 10), ".r\nS.\n");
}

TEST(RenderTest, CoarseMajorityVote) {
  // 4x4 grid, top-left 2x2 block all R, rest P; render at 2x2.
  Partition q(4);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) q.set(i, j, Proc::R);
  EXPECT_EQ(renderAscii(q, 2), "r.\n..\n");
}

TEST(RenderTest, OutputDimensions) {
  Partition q(100);
  const auto art = renderAscii(q, 10);
  // 10 rows of 10 chars + newline each.
  EXPECT_EQ(art.size(), 110u);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 10);
}

TEST(RenderTest, RejectsNonPositiveBudget) {
  Partition q(4);
  EXPECT_THROW(renderAscii(q, 0), CheckError);
}

TEST(SummaryLineTest, MentionsAllProcessors) {
  Partition q(6);
  q.set(0, 0, Proc::R);
  const auto line = summaryLine(q);
  EXPECT_NE(line.find("n=6"), std::string::npos);
  EXPECT_NE(line.find("VoC="), std::string::npos);
  EXPECT_NE(line.find("R:1"), std::string::npos);
  EXPECT_NE(line.find("P:35"), std::string::npos);
}

TEST(RenderTest, KOwnersShowDigitsAndFastestDot) {
  Partition q(3, 4);
  q.set(0, 0, procFromIndex(0));
  q.set(1, 1, procFromIndex(1));
  q.set(2, 2, procFromIndex(2));
  EXPECT_EQ(renderAscii(q), "0..\n.1.\n..2\n");
  Partition two(2, 2);
  two.set(0, 1, Proc::R);
  EXPECT_EQ(renderAscii(two), ".0\n..\n");
}

}  // namespace
}  // namespace pushpart
