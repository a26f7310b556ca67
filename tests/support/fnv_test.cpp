#include "support/fnv.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>

namespace pushpart {
namespace {

TEST(Fnv1aTest, MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1aTest, FoldsIncrementally) {
  // A hash continued from a prefix equals the hash of the whole.
  EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));
  const std::string text = "foobar";
  EXPECT_EQ(fnv1a(std::as_bytes(std::span(text))), 0x85944171f73967e8ull);
  EXPECT_EQ(fnv1a(std::span<const std::byte>{}), kFnv1aBasis);
}

}  // namespace
}  // namespace pushpart
