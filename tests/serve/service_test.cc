/**
 * @file
 * Protocol tests for the gtscd request handler, run without a
 * socket: ping/stats/shutdown, batched run requests streaming one
 * result line per cell, cache hit/miss accounting against the
 * persistent store, store bypass, and error reporting for malformed
 * or invalid requests.
 */

#include "serve/service.hh"

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "serve/jsonl.hh"

namespace fs = std::filesystem;
using namespace gtsc;
using serve::Service;
using serve::ServiceOptions;

namespace
{

struct TempDir
{
    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "gtsc-service-test-XXXXXX")
                .string();
        path = mkdtemp(tmpl.data());
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string path;
};

sim::Config
tiny()
{
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 2);
    cfg.setInt("gpu.warps_per_sm", 2);
    cfg.setInt("gpu.num_partitions", 2);
    cfg.setDouble("wl.scale", 0.25);
    cfg.setBool("check.enabled", false);
    return cfg;
}

/** Feed one line, collect parsed response objects. */
struct Responses
{
    std::vector<serve::json::Value> lines;
    bool keepGoing = true;

    const serve::json::Value &
    last() const
    {
        return lines.back();
    }

    /** Count of "result" lines with the given cached flag. */
    int
    results(bool cached) const
    {
        int n = 0;
        for (const auto &v : lines) {
            const serve::json::Value *op = v.get("op");
            const serve::json::Value *c = v.get("cached");
            if (op && op->str == "result" && c &&
                c->boolean == cached)
                n++;
        }
        return n;
    }
};

Responses
ask(Service &service, const std::string &line)
{
    Responses out;
    out.keepGoing =
        service.handleLine(line, [&](const std::string &resp) {
            serve::json::Value v;
            std::string err;
            ASSERT_TRUE(serve::json::parse(resp, &v, &err))
                << "daemon emitted bad JSON: " << resp;
            out.lines.push_back(std::move(v));
        });
    return out;
}

/** Service with a fresh store rooted in `td`. */
Service
makeService(const TempDir &td)
{
    ServiceOptions opts;
    serve::ResultStore::Options so;
    so.root = td.path;
    opts.store = std::make_shared<serve::ResultStore>(so);
    opts.jobs = 1;
    opts.baseConfig = tiny();
    return Service(std::move(opts));
}

const std::string kTwoCells =
    R"({"op":"run","id":"t","cells":[)"
    R"({"workload":"bh","protocol":"tc","consistency":"sc"},)"
    R"({"workload":"bh","protocol":"gtsc","consistency":"rc"}]})";

} // namespace

TEST(Service, PingReportsVersionsAndStore)
{
    TempDir td;
    Service service = makeService(td);
    Responses r = ask(service, R"({"op":"ping","id":"x"})");
    ASSERT_EQ(r.lines.size(), 1u);
    EXPECT_TRUE(r.keepGoing);
    EXPECT_EQ(r.last().get("op")->str, "pong");
    EXPECT_EQ(r.last().get("id")->str, "x");
    EXPECT_DOUBLE_EQ(r.last().get("schema")->number,
                     serve::kStoreSchemaVersion);
    EXPECT_EQ(r.last().get("store")->str, td.path);
}

TEST(Service, RunStreamsResultsThenHitsOnRerun)
{
    TempDir td;
    Service service = makeService(td);

    Responses cold = ask(service, kTwoCells);
    ASSERT_EQ(cold.lines.size(), 3u); // 2 results + done
    EXPECT_EQ(cold.results(false), 2);
    EXPECT_EQ(cold.results(true), 0);
    const serve::json::Value &done = cold.last();
    EXPECT_EQ(done.get("op")->str, "done");
    EXPECT_DOUBLE_EQ(done.get("hits")->number, 0.0);
    EXPECT_DOUBLE_EQ(done.get("misses")->number, 2.0);

    // Every result line carries the store key and the report row.
    for (const auto &v : cold.lines) {
        if (v.get("op")->str != "result")
            continue;
        EXPECT_EQ(v.get("key")->str.size(), 64u);
        EXPECT_TRUE(v.get("result")->isObject());
        EXPECT_FALSE(v.get("csv")->str.empty());
    }

    Responses warm = ask(service, kTwoCells);
    EXPECT_EQ(warm.results(true), 2);
    EXPECT_EQ(warm.results(false), 0);
    EXPECT_DOUBLE_EQ(warm.last().get("hits")->number, 2.0);

    // Warm results are bit-identical to the cold ones, per cell.
    auto csvOf = [](const Responses &rs, int cell) {
        for (const auto &v : rs.lines) {
            if (v.get("op")->str == "result" &&
                static_cast<int>(v.get("cell")->number) == cell)
                return v.get("csv")->str;
        }
        return std::string();
    };
    EXPECT_EQ(csvOf(cold, 0), csvOf(warm, 0));
    EXPECT_EQ(csvOf(cold, 1), csvOf(warm, 1));
}

TEST(Service, MixedBatchCountsHitsAndMisses)
{
    TempDir td;
    Service service = makeService(td);
    ask(service, kTwoCells); // prime 2 cells

    Responses mixed = ask(
        service,
        R"({"op":"run","id":"m","cells":[)"
        R"({"workload":"bh","protocol":"tc","consistency":"sc"},)"
        R"({"workload":"bh","protocol":"gtsc","consistency":"rc"},)"
        R"({"workload":"cc","protocol":"gtsc","consistency":"sc"}]})");
    EXPECT_EQ(mixed.results(true), 2);
    EXPECT_EQ(mixed.results(false), 1);
    EXPECT_DOUBLE_EQ(mixed.last().get("hits")->number, 2.0);
    EXPECT_DOUBLE_EQ(mixed.last().get("misses")->number, 1.0);
}

TEST(Service, StoreFalseBypassesTheCache)
{
    TempDir td;
    Service service = makeService(td);
    ask(service, kTwoCells); // prime

    Responses bypass = ask(
        service,
        R"({"op":"run","id":"b","store":false,"cells":[)"
        R"({"workload":"bh","protocol":"tc","consistency":"sc"}]})");
    EXPECT_EQ(bypass.results(false), 1);
    EXPECT_EQ(bypass.results(true), 0);
}

TEST(Service, PerCellConfigOverridesChangeTheKey)
{
    TempDir td;
    Service service = makeService(td);
    ask(service, kTwoCells); // primes bh/tc-sc at base config

    // Same cell with a different lease is a different experiment.
    Responses other = ask(
        service,
        R"({"op":"run","id":"o","cells":[)"
        R"({"workload":"bh","protocol":"tc","consistency":"sc",)"
        R"("config":{"tc.lease":400}}]})");
    EXPECT_EQ(other.results(false), 1);
}

TEST(Service, StatsReflectStoreActivity)
{
    TempDir td;
    Service service = makeService(td);
    ask(service, kTwoCells);
    ask(service, kTwoCells);

    Responses stats = ask(service, R"({"op":"stats","id":"s"})");
    ASSERT_EQ(stats.lines.size(), 1u);
    EXPECT_DOUBLE_EQ(stats.last().get("hits")->number, 2.0);
    EXPECT_DOUBLE_EQ(stats.last().get("puts")->number, 2.0);
    EXPECT_DOUBLE_EQ(stats.last().get("entries")->number, 2.0);
    EXPECT_GT(stats.last().get("disk_bytes")->number, 0.0);
}

TEST(Service, ShutdownStopsTheLoop)
{
    TempDir td;
    Service service = makeService(td);
    Responses r = ask(service, R"({"op":"shutdown"})");
    EXPECT_FALSE(r.keepGoing);
    EXPECT_EQ(r.last().get("op")->str, "bye");
}

TEST(Service, ErrorsAreReportedNotFatal)
{
    TempDir td;
    Service service = makeService(td);

    auto expectError = [&](const std::string &line) {
        Responses r = ask(service, line);
        EXPECT_TRUE(r.keepGoing);
        ASSERT_EQ(r.lines.size(), 1u) << line;
        EXPECT_FALSE(r.last().get("ok")->boolean) << line;
        EXPECT_EQ(r.last().get("op")->str, "error");
        EXPECT_FALSE(r.last().get("message")->str.empty());
    };

    expectError("this is not json");
    expectError("[1,2,3]");
    expectError(R"({"op":"frobnicate"})");
    expectError(R"({"op":"run","cells":[]})");
    expectError(R"({"op":"run","cells":[{"workload":"bh"}]})");
    expectError(
        R"({"op":"run","cells":[{"workload":"bh",)"
        R"("protocol":"nosuch","consistency":"sc"}]})");
    expectError(
        R"({"op":"run","cells":[{"workload":"nosuch",)"
        R"("protocol":"gtsc","consistency":"sc"}]})");
    expectError(
        R"({"op":"run","cells":[{"workload":"bh",)"
        R"("protocol":"gtsc","consistency":"weak"}]})");

    // An undeclared or ill-typed knob, in the request's or a cell's
    // "config", is named in the error line, and no cell runs.
    const std::string cell =
        R"({"workload":"bh","protocol":"tc","consistency":"sc")";
    const std::pair<std::string, std::string> badKnobs[] = {
        {R"({"op":"run","config":{"gpu.nmu_sms":3},"cells":[)" + cell +
             "}]}",
         "unknown config key 'gpu.nmu_sms'"},
        {R"({"op":"run","cells":[)" + cell +
             R"(,"config":{"gpu.nmu_sms":3}}]})",
         "cell 0: fatal: unknown config key 'gpu.nmu_sms'"},
        {R"({"op":"run","config":{"gpu.num_sms":"abc"},"cells":[)" +
             cell + "}]}",
         "config key 'gpu.num_sms' is not an unsigned integer"},
    };
    const std::uint64_t before = harness::runOneCallCount();
    for (const auto &[line, message] : badKnobs) {
        expectError(line);
        EXPECT_NE(ask(service, line).last().get("message")->str.find(
                      message),
                  std::string::npos)
            << line;
    }
    EXPECT_EQ(harness::runOneCallCount(), before);

    // Blank lines are ignored, and the service still works after
    // all of the above.
    Responses blank = ask(service, "   ");
    EXPECT_TRUE(blank.lines.empty());
    Responses ping = ask(service, R"({"op":"ping"})");
    EXPECT_EQ(ping.last().get("op")->str, "pong");
}

TEST(Service, BadJobsValueIsRejectedBeforeAnyCellRuns)
{
    TempDir td;
    Service service = makeService(td);
    const std::string head = R"({"op":"run","id":"j","jobs":)";
    const std::string cells =
        R"(,"cells":[{"workload":"bh","protocol":"tc",)"
        R"("consistency":"sc"}]})";
    // Only rejected values: an accepted large "jobs" would start that
    // many worker threads (capped at the cell count).
    for (const char *jobs : {"-1", "2.5", "1e20", R"("4")"}) {
        std::uint64_t before = harness::runOneCallCount();
        Responses r = ask(service, head + jobs + cells);
        ASSERT_EQ(r.lines.size(), 1u) << jobs;
        EXPECT_EQ(r.last().get("op")->str, "error") << jobs;
        EXPECT_NE(r.last().get("message")->str.find("\"jobs\""),
                  std::string::npos)
            << jobs;
        EXPECT_EQ(harness::runOneCallCount(), before) << jobs;
    }
}
