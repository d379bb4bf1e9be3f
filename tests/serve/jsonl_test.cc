/**
 * @file
 * Unit tests for the minimal JSON layer under the gtscd protocol:
 * full value grammar in, last-duplicate-wins object lookup, strict
 * trailing-garbage rejection, and the escape function the response
 * writers rely on.
 */

#include "serve/jsonl.hh"
#include "sim/text.hh"

#include <string>

#include <gtest/gtest.h>

using namespace gtsc::serve;

namespace
{

json::Value
parseOk(const std::string &text)
{
    json::Value v;
    std::string err;
    EXPECT_TRUE(json::parse(text, &v, &err)) << text << ": " << err;
    return v;
}

bool
parseFails(const std::string &text)
{
    json::Value v;
    std::string err;
    return !json::parse(text, &v, &err);
}

} // namespace

TEST(Jsonl, ParsesScalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_TRUE(parseOk("true").boolean);
    EXPECT_FALSE(parseOk("false").boolean);
    EXPECT_DOUBLE_EQ(parseOk("42").number, 42.0);
    EXPECT_DOUBLE_EQ(parseOk("-3.5e2").number, -350.0);
    EXPECT_EQ(parseOk("\"hi\"").str, "hi");
}

TEST(Jsonl, ParsesStringEscapes)
{
    json::Value v = parseOk(R"("a\"b\\c\n\tA")");
    EXPECT_EQ(v.str, "a\"b\\c\n\tA");
}

TEST(Jsonl, ParsesNestedStructures)
{
    json::Value v = parseOk(
        R"({"op":"run","cells":[{"workload":"bh"},{"workload":"cc"}],)"
        R"("jobs":2})");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.get("op")->str, "run");
    const json::Value *cells = v.get("cells");
    ASSERT_TRUE(cells != nullptr && cells->isArray());
    ASSERT_EQ(cells->array.size(), 2u);
    EXPECT_EQ(cells->array[1].get("workload")->str, "cc");
    EXPECT_DOUBLE_EQ(v.get("jobs")->number, 2.0);
    EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(Jsonl, DuplicateKeysKeepLast)
{
    json::Value v = parseOk(R"({"a":1,"a":2})");
    EXPECT_DOUBLE_EQ(v.get("a")->number, 2.0);
}

TEST(Jsonl, RejectsMalformedInput)
{
    EXPECT_TRUE(parseFails(""));
    EXPECT_TRUE(parseFails("{"));
    EXPECT_TRUE(parseFails("{\"a\":}"));
    EXPECT_TRUE(parseFails("[1,]"));
    EXPECT_TRUE(parseFails("\"unterminated"));
    EXPECT_TRUE(parseFails("tru"));
    EXPECT_TRUE(parseFails("{} trailing"));
    EXPECT_TRUE(parseFails("1 2"));
}

TEST(Jsonl, AllowsTrailingWhitespace)
{
    EXPECT_TRUE(parseOk("{}  \r\n").isObject());
}

TEST(Jsonl, AsStringCoercions)
{
    EXPECT_EQ(parseOk("\"x\"").asString(), "x");
    EXPECT_EQ(parseOk("true").asString(), "true");
    EXPECT_EQ(parseOk("false").asString(), "false");
    // Integral numbers must coerce without a decimal point, so
    // {"jobs": 4} and "gpu.max_cycles": 20000 work as config values.
    EXPECT_EQ(parseOk("4").asString(), "4");
    EXPECT_EQ(parseOk("20000").asString(), "20000");
    EXPECT_EQ(parseOk("null").asString(), "");
}

TEST(Jsonl, EscapeRoundTripsThroughParse)
{
    std::string nasty = "a\"b\\c\nd\te\x01";
    json::Value v = parseOk("\"" + gtsc::sim::jsonEscape(nasty) + "\"");
    EXPECT_EQ(v.str, nasty);
}
