#include "harness/report.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace gtsc;

namespace
{

harness::RunResult
sampleResult()
{
    harness::RunResult r;
    r.workload = "BH";
    r.protocol = "gtsc";
    r.consistency = "rc";
    r.cycles = 1234;
    r.stats.counter("sm.instructions") = 99;
    r.stats.counter("l1.hits") = 10;
    r.stats.counter("l1.miss_cold") = 5;
    r.stats.counter("noc.req.bytes") = 2048;
    r.energy.core = 1e-6;
    r.energy.l1 = 2e-6;
    r.checkerViolations = 0;
    r.verified = true;
    return r;
}

} // namespace

TEST(Report, HeaderAndRowColumnCountsMatch)
{
    std::string header = harness::csvHeader();
    std::string row = harness::csvRow(sampleResult());
    auto count = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(count(header), count(row));
    EXPECT_GT(count(header), 20);
}

TEST(Report, RowContainsKeyFields)
{
    std::string row = harness::csvRow(sampleResult());
    EXPECT_EQ(row.rfind("BH,gtsc,rc,1234,99,", 0), 0u);
    EXPECT_NE(row.find(",true"), std::string::npos);
}

TEST(Report, WriteCsvRoundTrip)
{
    std::string path = "/tmp/gtsc_report_test.csv";
    harness::writeCsv(path, {sampleResult(), sampleResult()});
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int lines = 0;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 3); // header + 2 rows
    std::remove(path.c_str());
}

TEST(Report, WriteCsvFailsOnBadPath)
{
    EXPECT_THROW(harness::writeCsv("/nonexistent-dir/x.csv",
                                   {sampleResult()}),
                 std::runtime_error);
}

TEST(Report, SummaryLineMentionsEssentials)
{
    std::string s = harness::summaryLine(sampleResult());
    EXPECT_NE(s.find("BH/gtsc/rc"), std::string::npos);
    EXPECT_NE(s.find("1234 cycles"), std::string::npos);
    EXPECT_EQ(s.find("VIOLATIONS"), std::string::npos);

    harness::RunResult bad = sampleResult();
    bad.checkerViolations = 3;
    EXPECT_NE(harness::summaryLine(bad).find("VIOLATIONS"),
              std::string::npos);
}

TEST(Report, JsonIsWellFormedAndComplete)
{
    std::string json = harness::toJson(sampleResult());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"workload\":\"BH\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles\":1234"), std::string::npos);
    EXPECT_NE(json.find("\"verified\":true"), std::string::npos);
}

TEST(Report, WriteJsonArray)
{
    std::string path = "/tmp/gtsc_report_test.json";
    harness::writeJson(path, {sampleResult(), sampleResult()});
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    EXPECT_EQ(text.front(), '[');
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'), 2);
    std::remove(path.c_str());
}

TEST(Report, CompositesSumTheirCounters)
{
    harness::RunResult r = sampleResult();
    r.stats.counter("noc.resp.bytes") = 1024;
    r.stats.counter("noc.req.packets") = 3;
    r.stats.counter("noc.resp.packets") = 4;
    r.stats.counter("dram.reads") = 6;
    r.stats.counter("dram.writes") = 1;
    r.stats.counter("l1.miss_expired") = 5;
    r.stats.distribution("noc.req.latency").sample(10);
    r.stats.distribution("noc.resp.latency").sample(30);
    EXPECT_EQ(harness::nocBytes(r), 3072u);
    EXPECT_EQ(harness::nocPackets(r), 7u);
    EXPECT_EQ(harness::dramAccesses(r), 7u);
    EXPECT_EQ(harness::nocLatency(r).count(), 2u);
    EXPECT_DOUBLE_EQ(harness::nocLatency(r).mean(), 20.0);
    EXPECT_DOUBLE_EQ(harness::l1HitPercent(r), 50.0);
    EXPECT_EQ(harness::l1HitPercent(harness::RunResult()), 0.0);
}

TEST(Report, JsonHasTheCsvColumnsInOrder)
{
    harness::RunResult r = sampleResult();
    std::string json = harness::toJson(r);
    std::istringstream header(harness::csvHeader());
    std::istringstream row(harness::csvRow(r));
    std::string name;
    std::string value;
    std::size_t at = 0;
    while (std::getline(header, name, ',')) {
        ASSERT_TRUE(std::getline(row, value, ',')) << name;
        bool text = name == "workload" || name == "protocol" ||
                    name == "consistency";
        std::string pair = "\"" + name + "\":" +
                           (text ? "\"" + value + "\"" : value);
        std::size_t pos = json.find(pair, at);
        ASSERT_NE(pos, std::string::npos) << pair << " in " << json;
        at = pos + pair.size();
    }
    EXPECT_EQ(at + 1, json.size());
}

TEST(Report, TextColumnsAreEscaped)
{
    // Trace workloads carry their path in the workload name.
    harness::RunResult r = sampleResult();
    r.workload = "TRACE(a,b\"q\".trace)";
    std::string row = harness::csvRow(r);
    EXPECT_EQ(row.rfind("\"TRACE(a,b\"\"q\"\".trace)\",gtsc,rc,1234,", 0),
              0u)
        << row;
    // Outside the quoted field the row has the header's columns.
    std::size_t commas = 0;
    bool quoted = false;
    for (char c : row) {
        if (c == '"')
            quoted = !quoted;
        else if (c == ',' && !quoted)
            ++commas;
    }
    std::string header = harness::csvHeader();
    EXPECT_EQ(commas,
              static_cast<std::size_t>(
                  std::count(header.begin(), header.end(), ',')));

    std::string json = harness::toJson(r);
    EXPECT_NE(json.find("\"workload\":\"TRACE(a,b\\\"q\\\".trace)\""),
              std::string::npos)
        << json;
    r.workload = "line\nbreak";
    EXPECT_EQ(harness::csvRow(r).rfind("\"line\nbreak\",", 0), 0u);
    EXPECT_NE(harness::toJson(r).find("\"line\\nbreak\""),
              std::string::npos);

    // Ordinary names print exactly as before.
    EXPECT_EQ(harness::csvRow(sampleResult()).rfind("BH,gtsc,rc,1234,", 0),
              0u);
}
