/**
 * Golden-statistics regression tests (gem5-style): pinned end-to-end
 * numbers for a handful of configurations. The simulator is fully
 * deterministic, so any diff here means the *timing model* changed —
 * which must be a deliberate decision, not an accident.
 *
 * If you intentionally change timing behaviour, re-generate with:
 *
 *   for spec in "gtsc rc bh" "gtsc sc stress" "tc rc stn" \
 *               "nol1 rc vpr" "gtsc tso km"; do set -- $spec; \
 *     ./build/examples/gtsc-sim run $1 $2 $3 gpu.num_sms=4 \
 *       gpu.warps_per_sm=4 gpu.num_partitions=2 wl.scale=0.5 --stats; \
 *   done
 *
 * and update the table below, explaining the change in your commit.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"

using namespace gtsc;

namespace
{

struct Golden
{
    const char *protocol;
    const char *consistency;
    const char *workload;
    Cycle cycles;
    std::uint64_t instructions;
    std::uint64_t l1Hits;
    std::uint64_t l2Accesses;
    std::uint64_t nocReqBytes;
    std::uint64_t nocRespBytes;
    std::uint64_t dramReads;
};

const Golden kGolden[] = {
    {"gtsc", "rc", "bh", 6453, 2000, 363, 649, 13836, 69766, 339},
    {"gtsc", "sc", "stress", 2006, 470, 41, 272, 12664, 21932, 129},
    {"tc", "rc", "stn", 3416, 1120, 0, 1024, 28160, 113920, 64},
    {"nol1", "rc", "vpr", 2956, 848, 0, 480, 11520, 34560, 205},
    {"gtsc", "tso", "km", 7287, 1664, 361, 719, 16692, 88308, 528},
};

// Names the case in test listings. Without a printer gtest dumps the
// struct's bytes, whose pointers change the ctest name on every build.
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.protocol << '/' << g.consistency << '/' << g.workload;
}

class GoldenStats : public ::testing::TestWithParam<Golden>
{
};

} // namespace

TEST_P(GoldenStats, ExactMatch)
{
    const Golden &g = GetParam();
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 4);
    cfg.setInt("gpu.warps_per_sm", 4);
    cfg.setInt("gpu.num_partitions", 2);
    cfg.setDouble("wl.scale", 0.5);

    harness::RunResult r =
        harness::runOne(cfg, g.protocol, g.consistency, g.workload);
    EXPECT_EQ(r.cycles, g.cycles);
    EXPECT_EQ(r.instructions, g.instructions);
    EXPECT_EQ(r.l1Hits, g.l1Hits);
    EXPECT_EQ(r.l2Accesses, g.l2Accesses);
    EXPECT_EQ(r.stats.get("noc.req.bytes"), g.nocReqBytes);
    EXPECT_EQ(r.stats.get("noc.resp.bytes"), g.nocRespBytes);
    EXPECT_EQ(r.stats.get("dram.reads"), g.dramReads);
    EXPECT_EQ(r.checkerViolations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, GoldenStats, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden> &info) {
        return std::string(info.param.protocol) + "_" +
               info.param.consistency + "_" + info.param.workload;
    });
