#include "harness/runner.hh"

#include <gtest/gtest.h>

#include <stdexcept>

#include "gpu/params.hh"

using namespace gtsc;
using harness::RunResult;
using harness::runOne;

namespace
{

sim::Config
tiny()
{
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 2);
    cfg.setInt("gpu.warps_per_sm", 2);
    cfg.setInt("gpu.num_partitions", 2);
    cfg.setDouble("wl.scale", 0.25);
    return cfg;
}

} // namespace

TEST(Runner, PopulatesDerivedMetrics)
{
    RunResult r = runOne(tiny(), "gtsc", "rc", "bh");
    EXPECT_EQ(r.workload, "BH");
    EXPECT_EQ(r.protocol, "gtsc");
    EXPECT_EQ(r.consistency, "rc");
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.nocBytes, 0u);
    EXPECT_GT(r.nocPackets, 0u);
    EXPECT_GT(r.avgNocLatency, 0.0);
    EXPECT_GT(r.energy.total(), 0.0);
    EXPECT_GT(r.loadsChecked, 0u);
    EXPECT_EQ(r.stats.get("gpu.cycles"), r.cycles);
}

TEST(Runner, CheckerCanBeDisabled)
{
    sim::Config cfg = tiny();
    cfg.setBool("check.enabled", false);
    RunResult r = runOne(cfg, "gtsc", "rc", "bh");
    EXPECT_EQ(r.loadsChecked, 0u);
    EXPECT_EQ(r.checkerViolations, 0u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(Runner, CheckerDoesNotPerturbTiming)
{
    sim::Config on = tiny();
    sim::Config off = tiny();
    off.setBool("check.enabled", false);
    RunResult a = runOne(on, "gtsc", "rc", "vpr");
    RunResult b = runOne(off, "gtsc", "rc", "vpr");
    EXPECT_EQ(a.cycles, b.cycles)
        << "the checker must be observation-only";
    EXPECT_EQ(a.nocBytes, b.nocBytes);
}

TEST(Runner, UnknownNamesAreFatal)
{
    EXPECT_THROW(runOne(tiny(), "mesi", "rc", "bh"),
                 std::runtime_error);
    EXPECT_THROW(runOne(tiny(), "gtsc", "weak", "bh"),
                 std::runtime_error);
    EXPECT_THROW(runOne(tiny(), "gtsc", "rc", "linpack"),
                 std::runtime_error);
}

TEST(Runner, ConsistencyOverridesConfig)
{
    sim::Config cfg = tiny();
    cfg.set("gpu.consistency", "rc"); // ignored: argument wins
    RunResult r = runOne(cfg, "gtsc", "sc", "bh");
    EXPECT_EQ(r.consistency, "sc");
}

TEST(Runner, ConfigsProvideExpectedShapes)
{
    // The declared defaults are the paper's machine.
    gpu::GpuParams paper = gpu::GpuParams::fromConfig(sim::Config());
    EXPECT_EQ(paper.numSms, 16u);
    EXPECT_EQ(paper.warpsPerSm, 48u);
    EXPECT_EQ(paper.numPartitions, 8u);
    sim::Config bench = harness::benchConfig();
    EXPECT_GT(bench.getUint("gpu.num_sms"), 0u);
}


