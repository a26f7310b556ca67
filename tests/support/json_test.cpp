#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>

#include "support/check.hpp"
#include "support/counter.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

/// A stream buffer whose every write fails, like a full disk.
class FailingBuf : public std::streambuf {
 protected:
  int overflow(int) override { return traits_type::eof(); }
};

/// The text JsonWriter writes for one double field.
std::string doubleText(double v) {
  std::ostringstream os;
  JsonWriter json(os);
  json.field("v", v);
  EXPECT_TRUE(json.close());
  const std::string doc = os.str();
  const std::size_t from = doc.find(": ") + 2;
  return doc.substr(from, doc.find('\n', from) - from);
}

TEST(JsonWriterTest, PlacesCommasAndIndentation) {
  std::ostringstream os;
  JsonWriter json(os);
  json.field("bench", "demo").field("n", 3).field("ok", true);
  json.beginObject("cold").field("n", 2).field("s", 0.5).end();
  json.beginArray("cells");
  json.beginObject().field("pr", 1).end();
  json.beginObject().field("pr", 2).end();
  json.end();
  json.beginArray("none").end();
  EXPECT_TRUE(json.close());
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"n\": 3,\n"
            "  \"ok\": true,\n"
            "  \"cold\": {\"n\": 2, \"s\": 0.5},\n"
            "  \"cells\": [\n"
            "    {\"pr\": 1},\n"
            "    {\"pr\": 2}\n"
            "  ],\n"
            "  \"none\": []\n"
            "}\n");
}

TEST(JsonWriterTest, CloseEndsOpenContainers) {
  std::ostringstream os;
  JsonWriter json(os);
  json.beginArray("cells").beginObject().field("a", false);
  EXPECT_TRUE(json.close());
  EXPECT_EQ(os.str(), "{\n  \"cells\": [\n    {\"a\": false}\n  ]\n}\n");
}

TEST(JsonWriterTest, EscapesStrings) {
  std::ostringstream os;
  JsonWriter json(os);
  json.field("s", std::string("q\"b\\n\n\t\x01"));
  EXPECT_TRUE(json.close());
  EXPECT_EQ(os.str(), "{\n  \"s\": \"q\\\"b\\\\n\\u000a\\u0009\\u0001\"\n}\n");
}

TEST(JsonWriterTest, IntegersAndCountersAreExact) {
  Counter hits;
  hits.add(41);
  hits.add();
  std::ostringstream os;
  JsonWriter json(os);
  json.field("hits", hits)
      .field("min", std::numeric_limits<std::int64_t>::min())
      .field("max", std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(json.close());
  EXPECT_EQ(os.str(),
            "{\n  \"hits\": 42,\n  \"min\": -9223372036854775808,\n"
            "  \"max\": 18446744073709551615\n}\n");
}

TEST(JsonWriterTest, DoublesRoundTripExactly) {
  EXPECT_EQ(doubleText(0.1), "0.1");
  EXPECT_EQ(doubleText(2.0), "2");
  EXPECT_EQ(doubleText(-0.0), "-0");
  EXPECT_EQ(doubleText(1e300), "1e+300");
  EXPECT_EQ(doubleText(5e-324), "5e-324");
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double v = (rng.real() - 0.5) *
                     std::ldexp(1.0, static_cast<int>(rng.below(200)) - 100);
    const std::string text = doubleText(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

TEST(JsonWriterTest, NonFiniteDoublesAreNull) {
  EXPECT_EQ(doubleText(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(doubleText(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(doubleText(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriterTest, KeysOnlyInObjects) {
  std::ostringstream os;
  JsonWriter json(os);
  EXPECT_THROW(json.beginObject(), CheckError);
  json.beginArray("cells");
  EXPECT_THROW(json.field("pr", 1), CheckError);
}

TEST(JsonWriterTest, FailedWritesAreReportedOnClose) {
  FailingBuf buf;
  std::ostream out(&buf);
  JsonWriter json(out);
  json.field("n", 1);
  EXPECT_FALSE(json.close());
}

TEST(JsonWriterTest, UnwritableFilesAreReportedOnClose) {
  testing::internal::CaptureStderr();
  EXPECT_FALSE(JsonWriter("/nonexistent-dir-xyz/report.json").close());
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "cannot write /nonexistent-dir-xyz/report.json\n");
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  JsonWriter full("/dev/full");
  full.field("bench", "demo");
  EXPECT_FALSE(full.close());
}

}  // namespace
}  // namespace pushpart
