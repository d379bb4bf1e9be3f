/**
 * End-to-end smoke tests: whole-GPU simulations on tiny
 * configurations, checked by the runtime coherence checker.
 */

#include <gtest/gtest.h>

#include "harness/report.hh"
#include "harness/runner.hh"

using namespace gtsc;
using harness::RunResult;
using harness::runOne;

namespace
{

sim::Config
tinyConfig()
{
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 4);
    cfg.setInt("gpu.warps_per_sm", 4);
    cfg.setInt("gpu.num_partitions", 2);
    cfg.setInt("l1.size_bytes", 4 * 1024);
    cfg.setInt("l2.partition_bytes", 32 * 1024);
    cfg.setDouble("wl.scale", 0.5);
    return cfg;
}

} // namespace

TEST(Smoke, MessagePassingGtscRc)
{
    RunResult r = runOne(tinyConfig(), "gtsc", "rc", "mp");
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.checkerViolations, 0u);
    EXPECT_TRUE(r.verified) << "consumer must observe the data";
    EXPECT_EQ(r.stats.get("sm.spin_giveups"), 0u);
}

TEST(Smoke, MessagePassingAllProtocols)
{
    for (const char *proto : {"gtsc", "tc", "nol1"}) {
        for (const char *cons : {"sc", "rc"}) {
            RunResult r = runOne(tinyConfig(), proto, cons, "mp");
            EXPECT_EQ(r.checkerViolations, 0u)
                << proto << "/" << cons;
            EXPECT_TRUE(r.verified) << proto << "/" << cons;
        }
    }
}

TEST(Smoke, StressCheckedOnAllCoherentProtocols)
{
    for (const char *proto : {"gtsc", "tc", "nol1"}) {
        for (const char *cons : {"sc", "rc"}) {
            RunResult r = runOne(tinyConfig(), proto, cons, "stress");
            EXPECT_GT(r.loadsChecked, 0u) << proto;
            EXPECT_EQ(r.checkerViolations, 0u)
                << proto << "/" << cons;
        }
    }
}

TEST(Smoke, PingPongFigure9)
{
    RunResult r = runOne(tinyConfig(), "gtsc", "rc", "pingpong");
    EXPECT_EQ(r.checkerViolations, 0u);
}

TEST(Smoke, BenchmarkBfsRunsOnGtsc)
{
    sim::Config cfg = tinyConfig();
    cfg.setDouble("wl.scale", 0.25);
    RunResult r = runOne(cfg, "gtsc", "rc", "bfs");
    EXPECT_EQ(r.checkerViolations, 0u);
    EXPECT_GT(r.stats.get("sm.instructions"), 0u);
    EXPECT_GT(harness::nocBytes(r), 0u);
}
