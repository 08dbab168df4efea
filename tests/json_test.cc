#include "util/json.h"

#include <gtest/gtest.h>

#include <string>

namespace gmine {
namespace {

/// Escapes `value` into a one-field object and parses it back.
std::string RoundTrip(const std::string& value) {
  auto fields =
      ParseJsonStringObject("{\"v\":\"" + JsonEscape(value) + "\"}");
  EXPECT_TRUE(fields.ok()) << fields.status().ToString();
  if (!fields.ok() || fields.value().size() != 1) return "<parse failed>";
  EXPECT_EQ(fields.value()[0].first, "v");
  return fields.value()[0].second;
}

TEST(JsonTest, EveryAsciiByteSurvivesEscapeAndParse) {
  std::string all;
  for (int c = 0; c < 0x80; ++c) {
    const std::string one(1, static_cast<char>(c));
    EXPECT_EQ(RoundTrip(one), one) << "byte " << c;
    all += one;
  }
  EXPECT_EQ(RoundTrip(all), all);
  EXPECT_EQ(RoundTrip("\"quoted\" \\ back\\slash"),
            "\"quoted\" \\ back\\slash");
}

TEST(JsonTest, EscapesControlBytesShortWhereJsonHasAShortForm) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("\n\r\t\b\f"), "\\n\\r\\t\\b\\f");
  EXPECT_EQ(JsonEscape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(JsonEscape("\x1f"), "\\u001f");
}

TEST(JsonTest, RejectsWhatIsNotAFlatStringObject) {
  EXPECT_FALSE(ParseJsonStringObject("{\"a\":1}").ok());
  EXPECT_FALSE(ParseJsonStringObject("{\"a\":{\"b\":\"c\"}}").ok());
  EXPECT_FALSE(ParseJsonStringObject("{\"a\":\"b\"} x").ok());
  EXPECT_FALSE(ParseJsonStringObject("{\"a\":\"unterminated}").ok());
  auto empty = ParseJsonStringObject(" { } ");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

}  // namespace
}  // namespace gmine
