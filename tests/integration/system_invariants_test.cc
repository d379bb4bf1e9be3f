/**
 * Whole-system statistics invariants, cross-checked after full runs:
 * conservation laws that hold regardless of protocol or workload.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "workloads/registry.hh"

using namespace gtsc;
using harness::RunResult;
using harness::runOne;

namespace
{

sim::Config
smallConfig()
{
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 4);
    cfg.setInt("gpu.warps_per_sm", 6);
    cfg.setInt("gpu.num_partitions", 2);
    cfg.setDouble("wl.scale", 0.5);
    return cfg;
}

} // namespace

TEST(SystemInvariants, BaselineNeverTouchesL1)
{
    RunResult r = runOne(smallConfig(), "nol1", "rc", "vpr");
    EXPECT_EQ(r.stats.get("l1.tag_accesses"), 0u);
    EXPECT_EQ(r.stats.get("l1.hits"), 0u);
    EXPECT_GT(r.stats.get("l1.bypass_reads"), 0u);
    EXPECT_GT(r.stats.get("l1.bypass_writes"), 0u);
}

TEST(SystemInvariants, CycleAccountingSumsToTotal)
{
    for (const char *proto : {"gtsc", "tc", "nol1"}) {
        RunResult r = runOne(smallConfig(), proto, "rc", "bh");
        std::uint64_t sm_cycles =
            r.stats.get("sm.active_cycles") +
            r.stats.get("sm.mem_stall_cycles") +
            r.stats.get("sm.compute_stall_cycles") +
            r.stats.get("sm.idle_cycles");
        EXPECT_EQ(sm_cycles, r.cycles * 4) << proto
            << ": every SM-cycle is classified exactly once";
    }
}

TEST(SystemInvariants, RequestsAndResponsesBalance)
{
    for (const char *proto : {"gtsc", "tc", "nol1"}) {
        RunResult r = runOne(smallConfig(), proto, "rc", "stn");
        // Every request eventually gets exactly one response, and
        // both networks drained before the run ended.
        std::uint64_t reqs = r.stats.get("noc.req.packets");
        std::uint64_t resps = r.stats.get("noc.resp.packets");
        EXPECT_EQ(reqs, resps) << proto;
        EXPECT_GT(reqs, 0u);
    }
}

TEST(SystemInvariants, GtscResponseMixMatchesRequests)
{
    RunResult r = runOne(smallConfig(), "gtsc", "rc", "bh");
    // BusRd -> BusFill or BusRnw; BusWr -> BusWrAck.
    EXPECT_EQ(r.stats.get("noc.req.packets.BusRd"),
              r.stats.get("noc.resp.packets.BusFill") +
                  r.stats.get("noc.resp.packets.BusRnw"));
    EXPECT_EQ(r.stats.get("noc.req.packets.BusWr"),
              r.stats.get("noc.resp.packets.BusWrAck"));
}

TEST(SystemInvariants, L2AccessesMatchDeliveredRequests)
{
    for (const char *proto : {"gtsc", "tc"}) {
        RunResult r = runOne(smallConfig(), proto, "rc", "vpr");
        // Each delivered request is processed exactly once (waiter
        // replays after a miss re-process the packet, so accesses
        // can exceed deliveries only via those replays: accesses ==
        // deliveries + replayed-miss waiters; at minimum:).
        EXPECT_GE(r.stats.get("l2.accesses"),
                  r.stats.get("noc.req.packets"))
            << proto;
    }
}

TEST(SystemInvariants, EnergyBreakdownIsConsistent)
{
    RunResult r = runOne(smallConfig(), "gtsc", "rc", "km");
    EXPECT_GT(r.energy.core, 0.0);
    EXPECT_GT(r.energy.l1, 0.0);
    EXPECT_GT(r.energy.l2, 0.0);
    EXPECT_GT(r.energy.noc, 0.0);
    EXPECT_GT(r.energy.dram, 0.0);
    EXPECT_NEAR(r.energy.total(),
                r.energy.core + r.energy.l1 + r.energy.l2 +
                    r.energy.noc + r.energy.dram,
                1e-12);
}

TEST(SystemInvariants, BaselineL1EnergyIsStaticFree)
{
    // The BL configuration has no L1 arrays: only the (absent)
    // dynamic component may appear.
    RunResult r = runOne(smallConfig(), "nol1", "rc", "km");
    EXPECT_EQ(r.energy.l1, 0.0);
}

TEST(SystemInvariants, DeterministicAcrossRuns)
{
    RunResult a = runOne(smallConfig(), "gtsc", "rc", "bfs");
    RunResult b = runOne(smallConfig(), "gtsc", "rc", "bfs");
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.nocBytes, b.nocBytes);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
}

TEST(SystemInvariants, SeedChangesSchedule)
{
    sim::Config cfg = smallConfig();
    RunResult a = runOne(cfg, "gtsc", "rc", "vpr");
    cfg.setInt("wl.seed", 99);
    RunResult b = runOne(cfg, "gtsc", "rc", "vpr");
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(SystemInvariants, ScaleGrowsWork)
{
    sim::Config cfg = smallConfig();
    RunResult small = runOne(cfg, "gtsc", "rc", "bh");
    cfg.setDouble("wl.scale", 1.5);
    RunResult big = runOne(cfg, "gtsc", "rc", "bh");
    EXPECT_GT(big.instructions, small.instructions * 2);
    EXPECT_GT(big.cycles, small.cycles);
}

TEST(SystemInvariants, PaperScaleConfigRuns)
{
    // One sanity run at the paper's machine shape, the declared
    // defaults (scaled-down workload to keep the test fast).
    sim::Config cfg;
    cfg.setDouble("wl.scale", 0.2);
    RunResult r = runOne(cfg, "gtsc", "rc", "bh");
    EXPECT_EQ(r.checkerViolations, 0u);
    EXPECT_GT(r.instructions, 0u);
}

TEST(SystemInvariants, L2ServiceLatencyCoversEveryAccess)
{
    RunResult r = runOne(smallConfig(), "gtsc", "rc", "bh");
    const sim::Distribution &d =
        r.stats.getDistribution("l2.service_latency");
    // Every network-delivered request is sampled once on first
    // processing (waiter replays carry no injection stamp).
    EXPECT_EQ(d.count(), r.stats.get("noc.req.packets"));
    // Service latency includes at least the NoC traversal.
    EXPECT_GE(d.min(), 10.0);
}
