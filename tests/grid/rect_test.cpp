#include "grid/rect.hpp"

#include <gtest/gtest.h>

namespace pushpart {
namespace {

TEST(RectTest, EmptyRect) {
  const Rect e = Rect::empty();
  EXPECT_TRUE(e.isEmpty());
  EXPECT_EQ(e.area(), 0);
  EXPECT_EQ(e.height(), 0);
  EXPECT_EQ(e.width(), 0);
}

TEST(RectTest, Dimensions) {
  const Rect r{1, 4, 2, 7};
  EXPECT_FALSE(r.isEmpty());
  EXPECT_EQ(r.height(), 3);
  EXPECT_EQ(r.width(), 5);
  EXPECT_EQ(r.area(), 15);
}

TEST(RectTest, ContainsPoint) {
  const Rect r{1, 4, 2, 7};
  EXPECT_TRUE(r.contains(1, 2));
  EXPECT_TRUE(r.contains(3, 6));
  EXPECT_FALSE(r.contains(4, 2));  // rowEnd exclusive
  EXPECT_FALSE(r.contains(1, 7));  // colEnd exclusive
  EXPECT_FALSE(r.contains(0, 2));
}

TEST(RectTest, ContainsRect) {
  const Rect outer{0, 10, 0, 10};
  EXPECT_TRUE(outer.contains(Rect{2, 5, 3, 7}));
  EXPECT_TRUE(outer.contains(outer));
  EXPECT_FALSE(outer.contains(Rect{2, 11, 3, 7}));
  // Empty rect is contained in everything, including another empty rect.
  EXPECT_TRUE(outer.contains(Rect::empty()));
  EXPECT_TRUE(Rect::empty().contains(Rect::empty()));
  EXPECT_FALSE(Rect::empty().contains(outer));
}

TEST(RectTest, Overlaps) {
  const Rect a{0, 5, 0, 5};
  EXPECT_TRUE(a.overlaps(Rect{4, 8, 4, 8}));     // corner overlap
  EXPECT_FALSE(a.overlaps(Rect{5, 8, 0, 5}));    // touching edges don't overlap
  EXPECT_FALSE(a.overlaps(Rect{0, 5, 5, 8}));
  EXPECT_FALSE(a.overlaps(Rect::empty()));
  EXPECT_TRUE(a.overlaps(a));
  EXPECT_TRUE(a.overlaps(Rect{3, 8, 2, 4}));     // straddles one edge
  EXPECT_FALSE(a.overlaps(Rect{6, 8, 6, 8}));    // disjoint
}

TEST(RectTest, Equality) {
  EXPECT_EQ((Rect{1, 2, 3, 4}), (Rect{1, 2, 3, 4}));
  EXPECT_NE((Rect{1, 2, 3, 4}), (Rect{1, 2, 3, 5}));
}

}  // namespace
}  // namespace pushpart
