/**
 * Work counts that machine noise cannot blur: what the main loop
 * executes to simulate a fixed run, on the hot-path golden machine
 * (4 SMs x 4 warps, 2 partitions, wl.scale=0.5).
 *
 * On cc most warp instructions retry an access the full L1 MSHR
 * rejects, and GTO hands the issue slot to the same retrying warp
 * cycle after cycle. The SM parks on a retry the L1's reject
 * generation proves doomed and charges those slots in bulk
 * (DESIGN.md §7), so it must execute far fewer ticks than the issue
 * slots it accounts. Ticking every such retry put the ticks above
 * the slots (1.09x on gtsc, 1.07x on tc); parking cuts them to about
 * an eighth (0.13x).
 */

#include <gtest/gtest.h>

#include <string>

#include "gpu/gpu_system.hh"
#include "protocols/builders.hh"
#include "workloads/registry.hh"

using namespace gtsc;

namespace
{

class WorkCounts : public ::testing::TestWithParam<const char *>
{
};

} // namespace

TEST_P(WorkCounts, ParkedRetriesCostNoTicks)
{
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 4);
    cfg.setInt("gpu.warps_per_sm", 4);
    cfg.setInt("gpu.num_partitions", 2);
    cfg.setDouble("wl.scale", 0.5);
    cfg.set("gpu.consistency", "rc");

    auto builder = protocols::makeProtocol(GetParam());
    auto wl = workloads::makeWorkload("cc", cfg);
    gpu::GpuSystem sys(cfg, *builder, *wl);
    sys.run();

    ASSERT_GT(sys.stats().get("l1.rejects_mshr_full"), 0u)
        << "cc must exercise the MSHR-full reject path";
    EXPECT_LT(sys.smTicksExecuted() * 2, sys.issueSlotsUsed())
        << sys.smTicksExecuted() << " SM ticks for "
        << sys.issueSlotsUsed() << " issue slots";
}

INSTANTIATE_TEST_SUITE_P(Protocols, WorkCounts,
                         ::testing::Values("gtsc", "tc"),
                         [](const ::testing::TestParamInfo<const char *>
                                &info) { return std::string(info.param); });
