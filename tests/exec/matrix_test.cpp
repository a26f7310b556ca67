#include "exec/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "support/check.hpp"

namespace pushpart {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(3, 1.5);
  EXPECT_EQ(m.n(), 3);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 1.5);
  m.at(1, 2) = -4.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), -4.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 1.5);
}

TEST(MatrixTest, RandomMatrixInRange) {
  Rng rng(1);
  const Matrix m = randomMatrix(8, rng);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) {
      EXPECT_GE(m.at(i, j), -1.0);
      EXPECT_LT(m.at(i, j), 1.0);
    }
}

TEST(MatrixTest, RandomMatrixDeterministic) {
  Rng a(7), b(7);
  const Matrix x = randomMatrix(6, a);
  const Matrix y = randomMatrix(6, b);
  EXPECT_DOUBLE_EQ(maxAbsDiff(x, y), 0.0);
}

TEST(MultiplySerialTest, IdentityIsNeutral) {
  Rng rng(2);
  const Matrix a = randomMatrix(5, rng);
  Matrix eye(5, 0.0);
  for (int i = 0; i < 5; ++i) eye.at(i, i) = 1.0;
  EXPECT_LT(maxAbsDiff(multiplySerial(a, eye), a), 1e-12);
  EXPECT_LT(maxAbsDiff(multiplySerial(eye, a), a), 1e-12);
}

TEST(MultiplySerialTest, KnownSmallProduct) {
  Matrix a(2), b(2);
  a.at(0, 0) = 1; a.at(0, 1) = 2;
  a.at(1, 0) = 3; a.at(1, 1) = 4;
  b.at(0, 0) = 5; b.at(0, 1) = 6;
  b.at(1, 0) = 7; b.at(1, 1) = 8;
  const Matrix c = multiplySerial(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50);
}

TEST(MultiplySerialTest, SizeMismatchRejected) {
  Matrix a(3), b(4);
  EXPECT_THROW(multiplySerial(a, b), CheckError);
}

TEST(MaxAbsDiffTest, FindsWorstEntry) {
  Matrix x(2, 0.0), y(2, 0.0);
  y.at(1, 0) = 0.25;
  y.at(0, 1) = -0.5;
  EXPECT_DOUBLE_EQ(maxAbsDiff(x, y), 0.5);
}

TEST(MaxAbsDiffTest, NaNIsNeverAMatch) {
  // A NaN in either operand, at the first cell or an interior one, must
  // not read as a difference of 0 (std::max would keep the running worst).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [i, j] : {std::pair{0, 0}, std::pair{1, 2}})
    for (bool inX : {true, false}) {
      Matrix x(3, 0.5), y(3, 0.5);
      (inX ? x : y).at(i, j) = nan;
      EXPECT_TRUE(std::isnan(maxAbsDiff(x, y)))
          << "NaN at (" << i << "," << j << ") in " << (inX ? "x" : "y");
    }
}

}  // namespace
}  // namespace pushpart
