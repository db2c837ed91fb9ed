//===- tests/support/JsonTest.cpp --------------------------------------------=//
//
// The one JSON writer behind the daemon's Stats reply and the pbt-bench
// reports: escaping, empty containers, commas between nested members,
// numbers, and both layouts byte for byte.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

using pbt::support::JsonWriter;

namespace {

constexpr JsonWriter::Layout Compact = JsonWriter::Layout::Compact;
constexpr JsonWriter::Layout Indented = JsonWriter::Layout::Indented;

TEST(JsonTest, EscapesQuotesBackslashesAndControlBytes) {
  JsonWriter W(Compact);
  W.beginObject()
      .string("s", "q\"b\\n\nr\rt\tz\x01\x1f\x7f")
      .string("k\"\\", "")
      .end();
  EXPECT_EQ(W.str(), "{\"s\": \"q\\\"b\\\\n\\nr\\rt\\tz\\u0001\\u001f\x7f\", "
                     "\"k\\\"\\\\\": \"\"}");
}

TEST(JsonTest, EmptyContainers) {
  for (JsonWriter::Layout L : {Compact, Indented}) {
    JsonWriter W(L);
    W.beginObject().beginArray("a").end().beginObject("o").end().end();
    EXPECT_EQ(W.str(), L == Compact ? "{\"a\": [], \"o\": {}}"
                                    : "{\n  \"a\": [],\n  \"o\": {}\n}\n");
    JsonWriter Root(L);
    Root.beginObject().end();
    EXPECT_EQ(Root.str(), L == Compact ? "{}" : "{}\n");
  }
}

TEST(JsonTest, NestedContainersAndCommas) {
  JsonWriter W(Compact);
  W.beginObject().number("n", 1).beginArray("list");
  for (int I = 0; I != 3; ++I)
    W.beginObject().number("i", I).beginArray("inner").end().end();
  W.end().beginObject("obj").boolean("t", true).boolean("f", false).end();
  W.raw("raw", "{\"x\": [1, 2]}").end();
  EXPECT_EQ(W.str(), "{\"n\": 1, \"list\": [{\"i\": 0, \"inner\": []}, "
                     "{\"i\": 1, \"inner\": []}, {\"i\": 2, \"inner\": []}], "
                     "\"obj\": {\"t\": true, \"f\": false}, "
                     "\"raw\": {\"x\": [1, 2]}}");
}

TEST(JsonTest, IndentedBreaksTheTopTwoLevelsOnly) {
  JsonWriter W(Indented);
  W.beginObject().string("sub", "x").beginArray("rows");
  for (int I = 0; I != 2; ++I)
    W.beginObject()
        .number("i", I)
        .beginObject("deep")
        .number("d", I)
        .end()
        .end();
  W.end().beginObject("phase").number("p50", 2.5).end().end();
  EXPECT_EQ(W.str(), "{\n"
                     "  \"sub\": \"x\",\n"
                     "  \"rows\": [\n"
                     "    {\"i\": 0, \"deep\": {\"d\": 0}},\n"
                     "    {\"i\": 1, \"deep\": {\"d\": 1}}\n"
                     "  ],\n"
                     "  \"phase\": {\n"
                     "    \"p50\": 2.5\n"
                     "  }\n"
                     "}\n");
}

TEST(JsonTest, NumbersPrintSixSignificantDigitsAndNonFiniteAsNull) {
  JsonWriter W(Compact);
  W.beginObject()
      .number("d", 1.0 / 3.0)
      .number("big", 1234567.0)
      .number("neg", -2)
      .number("u64", UINT64_MAX)
      .number("nan", std::nan(""))
      .number("inf", HUGE_VAL)
      .end();
  EXPECT_EQ(W.str(), "{\"d\": 0.333333, \"big\": 1.23457e+06, \"neg\": -2, "
                     "\"u64\": 18446744073709551615, \"nan\": null, "
                     "\"inf\": null}");
}

} // namespace
