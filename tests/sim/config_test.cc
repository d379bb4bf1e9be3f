#include "sim/config.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

using gtsc::sim::Config;

TEST(Config, DefaultsReturnedWhenUnset)
{
    Config cfg;
    EXPECT_EQ(cfg.getInt("a.b", 42), 42);
    EXPECT_EQ(cfg.getUint("a.c", 7u), 7u);
    EXPECT_DOUBLE_EQ(cfg.getDouble("a.d", 1.5), 1.5);
    EXPECT_TRUE(cfg.getBool("a.e", true));
    EXPECT_EQ(cfg.getString("a.f", "x"), "x");
}

TEST(Config, SetOverridesDefault)
{
    Config cfg;
    cfg.setInt("k", 9);
    EXPECT_EQ(cfg.getInt("k", 1), 9);
    cfg.set("s", "hello");
    EXPECT_EQ(cfg.getString("s", ""), "hello");
    cfg.setBool("b", false);
    EXPECT_FALSE(cfg.getBool("b", true));
    cfg.setDouble("d", 2.25);
    EXPECT_DOUBLE_EQ(cfg.getDouble("d", 0), 2.25);
}

TEST(Config, BoolParsesCommonSpellings)
{
    Config cfg;
    cfg.set("t1", "true");
    cfg.set("t2", "1");
    cfg.set("t3", "on");
    cfg.set("f1", "false");
    cfg.set("f2", "0");
    cfg.set("f3", "off");
    EXPECT_TRUE(cfg.getBool("t1", false));
    EXPECT_TRUE(cfg.getBool("t2", false));
    EXPECT_TRUE(cfg.getBool("t3", false));
    EXPECT_FALSE(cfg.getBool("f1", true));
    EXPECT_FALSE(cfg.getBool("f2", true));
    EXPECT_FALSE(cfg.getBool("f3", true));
}

TEST(Config, MalformedValuesAreFatal)
{
    Config cfg;
    cfg.set("n", "not-a-number");
    EXPECT_THROW(cfg.getInt("n", 0), std::runtime_error);
    EXPECT_THROW(cfg.getDouble("n", 0), std::runtime_error);
    EXPECT_THROW(cfg.getBool("n", false), std::runtime_error);
}

TEST(Config, SignedOrOutOfRangeUnsignedValuesAreFatal)
{
    Config cfg;
    // strtoull alone would read "-1" as 2^64 - 1.
    cfg.set("neg", "-1");
    cfg.set("plus", "+4");
    cfg.set("huge", "99999999999999999999999");
    cfg.set("max", "18446744073709551615");
    EXPECT_THROW(cfg.getUint("plus", 0), std::runtime_error);
    EXPECT_THROW(cfg.getUint("huge", 0), std::runtime_error);
    EXPECT_EQ(cfg.getUint("max", 0), 18446744073709551615ull);
    try {
        cfg.getUint("neg", 0);
        ADD_FAILURE() << "'-1' was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "config key 'neg' is not an unsigned integer: '-1'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Config, OutOfRangeIntegersAreFatal)
{
    Config cfg;
    cfg.set("huge", "99999999999999999999999");
    cfg.set("tiny", "-99999999999999999999999");
    cfg.set("neg", "-5");
    EXPECT_THROW(cfg.getInt("huge", 0), std::runtime_error);
    EXPECT_THROW(cfg.getInt("tiny", 0), std::runtime_error);
    EXPECT_EQ(cfg.getInt("neg", 0), -5);
}

TEST(Config, ParseOverride)
{
    Config cfg;
    EXPECT_TRUE(cfg.parseOverride("gpu.num_sms=4"));
    EXPECT_EQ(cfg.getInt("gpu.num_sms", 0), 4);
    EXPECT_FALSE(cfg.parseOverride("no-equals"));
    EXPECT_FALSE(cfg.parseOverride("=value"));
    EXPECT_THROW(cfg.parseOverrides({"bad"}), std::runtime_error);
}

TEST(Config, HexIntegersAccepted)
{
    Config cfg;
    cfg.set("addr", "0x100");
    EXPECT_EQ(cfg.getUint("addr", 0), 0x100u);
}

TEST(Config, EffectiveIncludesConsultedDefaults)
{
    Config cfg;
    cfg.setInt("x", 1);
    (void)cfg.getInt("y", 5);
    auto eff = cfg.effective();
    EXPECT_EQ(eff.at("x"), "1");
    EXPECT_EQ(eff.at("y"), "5");
    EXPECT_NE(cfg.toString().find("x=1"), std::string::npos);
}

TEST(Config, LoadFileParsesKeyValueLines)
{
    std::string path = "/tmp/gtsc_config_test.conf";
    {
        std::ofstream out(path);
        out << "# a comment\n"
            << "gpu.num_sms = 4\n"
            << "\n"
            << "gtsc.lease=12   # trailing comment\n";
    }
    Config cfg;
    cfg.loadFile(path);
    EXPECT_EQ(cfg.getInt("gpu.num_sms", 0), 4);
    EXPECT_EQ(cfg.getInt("gtsc.lease", 0), 12);
    std::remove(path.c_str());
}

TEST(Config, LoadFileErrors)
{
    Config cfg;
    EXPECT_THROW(cfg.loadFile("/nonexistent.conf"),
                 std::runtime_error);
    std::string path = "/tmp/gtsc_config_bad.conf";
    {
        std::ofstream out(path);
        out << "not-a-pair\n";
    }
    EXPECT_THROW(cfg.loadFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Config, CanonicalValueNormalizesSpellings)
{
    // Booleans: every spelling getBool() accepts collapses to 1/0.
    EXPECT_EQ(Config::canonicalValue("true"), "1");
    EXPECT_EQ(Config::canonicalValue("yes"), "1");
    EXPECT_EQ(Config::canonicalValue("on"), "1");
    EXPECT_EQ(Config::canonicalValue("false"), "0");
    EXPECT_EQ(Config::canonicalValue("no"), "0");
    EXPECT_EQ(Config::canonicalValue("off"), "0");
    // Integers: same base-0 parse the getters use, so hex/octal
    // spellings of one knob value canonicalize identically.
    EXPECT_EQ(Config::canonicalValue("16"), "16");
    EXPECT_EQ(Config::canonicalValue("0x10"), "16");
    EXPECT_EQ(Config::canonicalValue("020"), "16");
    EXPECT_EQ(Config::canonicalValue("-5"), "-5");
    // Non-integer values must pass through verbatim — changing what
    // a getter would see is worse than missing a dedup.
    EXPECT_EQ(Config::canonicalValue("1.5"), "1.5");
    EXPECT_EQ(Config::canonicalValue("2x"), "2x");
    EXPECT_EQ(Config::canonicalValue(""), "");
    EXPECT_EQ(Config::canonicalValue("rr"), "rr");
    EXPECT_EQ(Config::canonicalValue("999999999999999999999999"),
              "999999999999999999999999");
}

TEST(Config, CanonicalStringInvariantUnderOrderAndSpelling)
{
    Config a;
    a.set("gpu.num_sms", "0x10");
    a.set("check.enabled", "true");
    a.set("wl.name", "bh");

    Config b; // reversed insertion order, different spellings
    b.set("wl.name", "bh");
    b.set("check.enabled", "1");
    b.setInt("gpu.num_sms", 16);

    EXPECT_EQ(a.canonicalString(), b.canonicalString());
    EXPECT_EQ(a.canonicalString(),
              "check.enabled=1\ngpu.num_sms=16\nwl.name=bh\n");

    // Different knob *values* must stay distinguishable.
    Config c = a;
    c.setInt("gpu.num_sms", 8);
    EXPECT_NE(a.canonicalString(), c.canonicalString());
}
