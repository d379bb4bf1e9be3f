#include "sim/config.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

using gtsc::sim::Config;

namespace
{

/** The message of the exception `fn` throws, or "" when none. */
template <typename Fn>
std::string
errorOf(Fn fn)
{
    try {
        fn();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Config, DefaultsReturnedWhenUnset)
{
    Config cfg;
    EXPECT_EQ(cfg.getUint("gpu.num_sms"), 16u);
    EXPECT_DOUBLE_EQ(cfg.getDouble("energy.noc_byte_pj"), 2.6);
    EXPECT_TRUE(cfg.getBool("check.enabled"));
    EXPECT_EQ(cfg.getString("gpu.consistency"), "rc");
    EXPECT_EQ(cfg.getString("obs.trace_dir"), "");
    EXPECT_FALSE(cfg.has("gpu.num_sms"));
}

TEST(Config, DeclaredDefaultsParse)
{
    std::set<std::string> names;
    for (const Config::Knob &k : Config::knobs()) {
        EXPECT_TRUE(names.insert(std::string(k.name)).second) << k.name;
        if (k.def == nullptr)
            continue;
        Config cfg;
        EXPECT_NO_THROW(cfg.set(std::string(k.name), k.def)) << k.name;
    }
}

TEST(Config, ComputedDefaultsAreReadBehindHas)
{
    // gtsc.spin_ts_boost, gtsc.max_lease, obs.sample_interval and
    // obs.transcript default to values derived from other knobs.
    Config cfg;
    EXPECT_FALSE(cfg.has("gtsc.max_lease"));
    EXPECT_THROW(cfg.getUint("gtsc.max_lease"), std::runtime_error);
    cfg.setInt("gtsc.max_lease", 64);
    EXPECT_EQ(cfg.getUint("gtsc.max_lease"), 64u);
}

TEST(Config, ReadsNameADeclaredKeyOfTheGettersType)
{
    Config cfg;
    EXPECT_THROW(cfg.getBool("gpu.num_sms"), std::runtime_error);
    EXPECT_THROW(cfg.getUint("gpu.nmu_sms"), std::runtime_error);
}

TEST(Config, SetOverridesDefault)
{
    Config cfg;
    cfg.setInt("gpu.num_sms", 9);
    EXPECT_EQ(cfg.getUint("gpu.num_sms"), 9u);
    EXPECT_TRUE(cfg.has("gpu.num_sms"));
    cfg.set("gpu.scheduler", "rr");
    EXPECT_EQ(cfg.getString("gpu.scheduler"), "rr");
    cfg.setBool("check.enabled", false);
    EXPECT_FALSE(cfg.getBool("check.enabled"));
    cfg.setDouble("wl.scale", 2.25);
    EXPECT_DOUBLE_EQ(cfg.getDouble("wl.scale"), 2.25);
}

TEST(Config, FallbackGetterReturnsTheSetText)
{
    Config cfg;
    EXPECT_EQ(cfg.getString("wl.scale", "-"), "-");
    cfg.setDouble("wl.scale", 4.0);
    EXPECT_EQ(cfg.getString("wl.scale", "-"), "4");
}

TEST(Config, BoolParsesCommonSpellings)
{
    for (const char *t : {"true", "1", "yes", "on"}) {
        Config cfg;
        cfg.set("obs.trace", t);
        EXPECT_TRUE(cfg.getBool("obs.trace")) << t;
    }
    for (const char *f : {"false", "0", "no", "off"}) {
        Config cfg;
        cfg.set("check.enabled", f);
        EXPECT_FALSE(cfg.getBool("check.enabled")) << f;
    }
}

TEST(Config, MalformedValuesAreFatal)
{
    Config cfg;
    EXPECT_THROW(cfg.set("gpu.num_sms", "not-a-number"),
                 std::runtime_error);
    EXPECT_THROW(cfg.set("wl.scale", "not-a-number"), std::runtime_error);
    EXPECT_THROW(cfg.set("wl.scale", ""), std::runtime_error);
    EXPECT_THROW(cfg.set("check.enabled", "maybe"), std::runtime_error);
    EXPECT_NE(errorOf([&] { cfg.set("wl.scale", "1.5x"); })
                  .find("config key 'wl.scale' is not a number: '1.5x'"),
              std::string::npos);
    EXPECT_NE(errorOf([&] { cfg.set("obs.trace", "2"); })
                  .find("config key 'obs.trace' is not a boolean: '2'"),
              std::string::npos);
    // A refused value leaves the knob as it was.
    cfg.setInt("gpu.num_sms", 4);
    EXPECT_THROW(cfg.set("gpu.num_sms", "4k"), std::runtime_error);
    EXPECT_EQ(cfg.getUint("gpu.num_sms"), 4u);
    EXPECT_FALSE(cfg.has("wl.scale"));
}

TEST(Config, SignedOrOutOfRangeUnsignedValuesAreFatal)
{
    Config cfg;
    // strtoull alone would read "-1" as 2^64 - 1.
    EXPECT_THROW(cfg.set("gpu.num_sms", "+4"), std::runtime_error);
    EXPECT_THROW(cfg.set("gpu.num_sms", "99999999999999999999999"),
                 std::runtime_error);
    EXPECT_THROW(cfg.setInt("gpu.num_sms", -5), std::runtime_error);
    cfg.set("gpu.max_cycles", "18446744073709551615");
    EXPECT_EQ(cfg.getUint("gpu.max_cycles"), 18446744073709551615ull);
    EXPECT_NE(errorOf([&] { cfg.set("gpu.num_sms", "-1"); })
                  .find("config key 'gpu.num_sms' is not an unsigned "
                        "integer: '-1'"),
              std::string::npos);
}

TEST(Config, UnknownKeysAreRefusedAndNamed)
{
    Config cfg;
    EXPECT_NE(errorOf([&] { cfg.set("gpu.nmu_sms", "3"); })
                  .find("unknown config key 'gpu.nmu_sms'"),
              std::string::npos);
    EXPECT_NE(errorOf([&] { cfg.parseOverride("gtsc.leas=20"); })
                  .find("unknown config key 'gtsc.leas'"),
              std::string::npos);
    // The deleted main-loop knobs are unknown like any typo.
    EXPECT_THROW(cfg.parseOverride("gpu.fast_forward=0"),
                 std::runtime_error);

    std::string path = "/tmp/gtsc_config_unknown.conf";
    {
        std::ofstream out(path);
        out << "gpu.num_sms = 4\nsim.max_cycles = 100\n";
    }
    EXPECT_NE(errorOf([&] { cfg.loadFile(path); })
                  .find("unknown config key 'sim.max_cycles'"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Config, ParseOverride)
{
    Config cfg;
    EXPECT_TRUE(cfg.parseOverride("gpu.num_sms=4"));
    EXPECT_EQ(cfg.getUint("gpu.num_sms"), 4u);
    EXPECT_FALSE(cfg.parseOverride("no-equals"));
    EXPECT_FALSE(cfg.parseOverride("=value"));
    EXPECT_THROW(cfg.parseOverrides({"bad"}), std::runtime_error);
}

TEST(Config, HexIntegersAccepted)
{
    Config cfg;
    cfg.set("obs.ring_capacity", "0x100");
    EXPECT_EQ(cfg.getUint("obs.ring_capacity"), 0x100u);
}

TEST(Config, ToStringListsEveryKnob)
{
    Config cfg;
    cfg.setInt("gpu.num_sms", 4);
    cfg.set("check.enabled", "no");
    std::string text = cfg.toString();
    std::istringstream in(text);
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line);)
        lines++;
    EXPECT_EQ(lines, Config::knobs().size());
    EXPECT_NE(text.find("\ngpu.num_sms=4\n"), std::string::npos);
    EXPECT_NE(text.find("check.enabled=0\n"), std::string::npos);
    EXPECT_NE(text.find("\ngpu.max_cycles=500000000\n"),
              std::string::npos);
    EXPECT_NE(text.find("\ngpu.flush_l2_between_kernels=1\n"),
              std::string::npos);
    EXPECT_NE(text.find("\n# gtsc.max_lease (computed)\n"),
              std::string::npos);
    // Loading the listing back sets every knob to the same value.
    std::string path = "/tmp/gtsc_config_listing.conf";
    {
        std::ofstream out(path);
        out << text;
    }
    Config back;
    back.loadFile(path);
    EXPECT_EQ(back.toString(), text);
    std::remove(path.c_str());
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
    EXPECT_EQ(cfg.getUint("gpu.num_sms"), 4u);
    EXPECT_EQ(cfg.getUint("gtsc.lease"), 12u);
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
    {
        std::ofstream out(path);
        out << "gpu.num_sms=abc\n";
    }
    EXPECT_THROW(cfg.loadFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Config, CanonicalValueNormalizesSpellings)
{
    // Each value is normalized by its knob's declared type.
    auto canonical = [](const std::string &key, const std::string &v) {
        Config cfg;
        cfg.set(key, v);
        return cfg.canonicalString();
    };
    // Booleans: every spelling getBool() accepts becomes 1/0.
    for (const char *t : {"true", "yes", "on", "1"})
        EXPECT_EQ(canonical("obs.trace", t), "obs.trace=1\n") << t;
    for (const char *f : {"false", "no", "off", "0"})
        EXPECT_EQ(canonical("obs.trace", f), "obs.trace=0\n") << f;
    // Unsigned integers: the getter's base-0 parse, in decimal.
    for (const char *n : {"16", "0x10", "020"})
        EXPECT_EQ(canonical("gpu.num_sms", n), "gpu.num_sms=16\n") << n;
    // Doubles and strings stay verbatim.
    EXPECT_EQ(canonical("wl.scale", "1.50"), "wl.scale=1.50\n");
    EXPECT_EQ(canonical("gpu.scheduler", "rr"), "gpu.scheduler=rr\n");
    EXPECT_EQ(canonical("obs.trace_dir", ""), "obs.trace_dir=\n");
}

TEST(Config, CanonicalStringInvariantUnderOrderAndSpelling)
{
    Config a;
    a.set("gpu.num_sms", "0x10");
    a.set("check.enabled", "true");
    a.set("gpu.scheduler", "rr");

    Config b; // reversed insertion order, different spellings
    b.set("gpu.scheduler", "rr");
    b.set("check.enabled", "1");
    b.setInt("gpu.num_sms", 16);

    EXPECT_EQ(a.canonicalString(), b.canonicalString());
    EXPECT_EQ(a.canonicalString(),
              "check.enabled=1\ngpu.num_sms=16\ngpu.scheduler=rr\n");

    // Different knob *values* must stay distinguishable.
    Config c = a;
    c.setInt("gpu.num_sms", 8);
    EXPECT_NE(a.canonicalString(), c.canonicalString());
}

TEST(Config, CanonicalStringFollowsTheDeclaredType)
{
    auto same = [](const std::string &key, const std::string &x,
                   const std::string &y) {
        Config a, b;
        a.set(key, x);
        b.set(key, y);
        return a.canonicalString() == b.canonicalString();
    };
    // Spellings of one unsigned or boolean value share a key...
    EXPECT_TRUE(same("gpu.num_sms", "0x10", "16"));
    EXPECT_TRUE(same("check.enabled", "yes", "1"));
    // ...but a double or a string is never read as an integer:
    // getDouble reads "010" as 10, and the transcript reads
    // "0x40" as line 0x40.
    EXPECT_FALSE(same("wl.scale", "010", "8"));
    EXPECT_FALSE(same("obs.transcript_filter", "0x40", "64"));
}

TEST(Config, DocsListEveryKnobWithItsDefault)
{
    // Each table row of docs/CONFIGURATION.md reads
    // "| `key` | default | meaning |"; a default may be `quoted`,
    // and "" is the empty string.
    std::ifstream in(GTSC_CONFIG_DOC);
    ASSERT_TRUE(in) << GTSC_CONFIG_DOC;
    auto trim = [](std::string s) {
        s.erase(0, s.find_first_not_of(' '));
        s.erase(s.find_last_not_of(' ') + 1);
        if (s.size() >= 2 && s.front() == '`' && s.back() == '`')
            s = s.substr(1, s.size() - 2);
        return s == "\"\"" ? std::string() : s;
    };
    std::map<std::string, std::string> rows;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("| `", 0) != 0)
            continue;
        std::size_t a = line.find('|', 1);
        std::size_t b = line.find('|', a + 1);
        ASSERT_NE(b, std::string::npos) << line;
        std::string key = trim(line.substr(1, a - 1));
        EXPECT_TRUE(rows.emplace(key, trim(line.substr(a + 1, b - a - 1)))
                        .second)
            << "two rows for " << key;
    }
    std::set<std::string> declared;
    for (const Config::Knob &k : Config::knobs()) {
        std::string name(k.name);
        declared.insert(name);
        auto it = rows.find(name);
        if (it == rows.end()) {
            ADD_FAILURE() << "no row for " << name;
            continue;
        }
        if (k.def != nullptr) {
            EXPECT_EQ(it->second, k.def) << "default of " << name;
        }
    }
    for (const auto &row : rows)
        EXPECT_TRUE(declared.count(row.first))
            << "row for undeclared knob " << row.first;
}
