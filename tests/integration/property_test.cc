/**
 * Property-based sweep: the randomized stress kernel must produce
 * ZERO coherence violations under the runtime checker for every
 * combination of protocol, consistency model, G-TSC lease, update-
 * visibility option, MSHR-combining policy and cache geometry.
 * This is the main correctness net for the protocol corner cases.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"

using namespace gtsc;
using harness::RunResult;
using harness::runOne;

namespace
{

struct SweepParam
{
    std::string protocol;
    std::string consistency;
    std::int64_t lease;
    std::string visibility;
    bool combine;
    std::int64_t l1Bytes;
    std::uint64_t seed;

    std::string
    tag() const
    {
        std::string s = protocol + "_" + consistency + "_L" +
                        std::to_string(lease) + "_" + visibility +
                        (combine ? "_comb" : "_fwd") + "_l1x" +
                        std::to_string(l1Bytes / 1024) + "_s" +
                        std::to_string(seed);
        return s;
    }
};

// Names the case in test listings. Without a printer gtest dumps the
// struct's bytes, whose pointers change the ctest name on every build.
void
PrintTo(const SweepParam &p, std::ostream *os)
{
    *os << p.tag();
}

class StressSweep : public ::testing::TestWithParam<SweepParam>
{
};

std::vector<SweepParam>
buildSweep()
{
    std::vector<SweepParam> out;
    // G-TSC corners: lease x visibility x combining x cache size.
    for (std::int64_t lease : {2, 8, 20}) {
        for (const char *vis : {"block", "dualcopy", "writebuffer"}) {
            for (bool combine : {true, false}) {
                out.push_back({"gtsc", "rc", lease, vis, combine,
                               2 * 1024, 1});
            }
        }
    }
    // Tiny caches force evictions/conflicts; multiple seeds.
    for (std::uint64_t seed : {1, 2, 3}) {
        out.push_back({"gtsc", "rc", 10, "block", true, 1024, seed});
        out.push_back({"gtsc", "sc", 10, "block", true, 1024, seed});
        out.push_back({"gtsc", "tso", 10, "block", true, 1024, seed});
        out.push_back({"tc", "rc", 10, "block", true, 1024, seed});
        out.push_back({"tc", "sc", 10, "block", true, 1024, seed});
        out.push_back({"tc", "tso", 10, "block", true, 1024, seed});
        out.push_back({"nol1", "rc", 10, "block", true, 1024, seed});
        out.push_back({"nol1", "tso", 10, "block", true, 1024, seed});
    }
    return out;
}

} // namespace

TEST_P(StressSweep, NoCoherenceViolations)
{
    const SweepParam &p = GetParam();
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 4);
    cfg.setInt("gpu.warps_per_sm", 4);
    cfg.setInt("gpu.num_partitions", 2);
    cfg.setInt("l1.size_bytes", p.l1Bytes);
    cfg.setInt("l1.assoc", 2);
    cfg.setInt("l2.partition_bytes", 16 * 1024);
    cfg.setInt("gtsc.lease", p.lease);
    cfg.set("gtsc.update_visibility", p.visibility);
    cfg.setBool("gtsc.combine_mshr", p.combine);
    cfg.setInt("wl.seed", static_cast<std::int64_t>(p.seed));
    cfg.setDouble("wl.scale", 0.75);

    RunResult r = runOne(cfg, p.protocol, p.consistency, "stress");
    EXPECT_GT(r.loadsChecked, 100u);
    EXPECT_EQ(r.checkerViolations, 0u) << p.tag();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StressSweep, ::testing::ValuesIn(buildSweep()),
    [](const ::testing::TestParamInfo<SweepParam> &info) {
        return info.param.tag();
    });

// The mesh interconnect must preserve coherence too (different
// delivery orders than the crossbar).
TEST(StressMesh, MeshTopologyStaysCoherent)
{
    for (const char *proto : {"gtsc", "tc"}) {
        sim::Config cfg;
        cfg.setInt("gpu.num_sms", 4);
        cfg.setInt("gpu.warps_per_sm", 4);
        cfg.setInt("gpu.num_partitions", 2);
        cfg.set("noc.topology", "mesh");
        cfg.setDouble("wl.scale", 0.75);
        harness::RunResult r = runOne(cfg, proto, "rc", "stress");
        EXPECT_GT(r.loadsChecked, 100u) << proto;
        EXPECT_EQ(r.checkerViolations, 0u) << proto;
    }
}

// Every optional substrate feature enabled at once must still be
// coherent: mesh NoC, FR-FCFS DRAM, adaptive leases, round-robin
// scheduling, TSO.
TEST(StressKitchenSink, AllFeaturesTogetherStayCoherent)
{
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 4);
    cfg.setInt("gpu.warps_per_sm", 4);
    cfg.setInt("gpu.num_partitions", 2);
    cfg.set("noc.topology", "mesh");
    cfg.set("dram.scheduler", "frfcfs");
    cfg.setBool("gtsc.adaptive_lease", true);
    cfg.set("gpu.scheduler", "rr");
    cfg.setDouble("wl.scale", 0.75);
    harness::RunResult r = runOne(cfg, "gtsc", "tso", "stress");
    EXPECT_GT(r.loadsChecked, 100u);
    EXPECT_EQ(r.checkerViolations, 0u);
}

// Narrow timestamps force frequent overflow resets (Section V-D):
// the reset protocol itself must preserve coherence.
TEST(StressOverflow, FrequentTsResetsStayCoherent)
{
    for (std::uint64_t seed : {1, 2}) {
        sim::Config cfg;
        cfg.setInt("gpu.num_sms", 4);
        cfg.setInt("gpu.warps_per_sm", 4);
        cfg.setInt("gpu.num_partitions", 2);
        cfg.setInt("l1.size_bytes", 2 * 1024);
        cfg.setInt("l2.partition_bytes", 16 * 1024);
        cfg.setInt("gtsc.ts_bits", 8); // tsMax = 255
        cfg.setInt("gtsc.lease", 8);
        cfg.setInt("wl.seed", static_cast<std::int64_t>(seed));
        cfg.setDouble("wl.scale", 3.0);

        harness::RunResult r = runOne(cfg, "gtsc", "rc", "stress");
        EXPECT_GT(r.stats.get("gtsc.ts_resets"), 0u)
            << "overflow path not exercised";
        EXPECT_EQ(r.checkerViolations, 0u) << "seed " << seed;
    }
}

// Multi-kernel workloads cross kernel-boundary flushes; coherence
// and functional results must survive them.
TEST(StressMultiKernel, BfsLevelsStayCoherent)
{
    for (const char *proto : {"gtsc", "tc", "nol1"}) {
        sim::Config cfg;
        cfg.setInt("gpu.num_sms", 4);
        cfg.setInt("gpu.warps_per_sm", 4);
        cfg.setInt("gpu.num_partitions", 2);
        cfg.setDouble("wl.scale", 0.5);
        harness::RunResult r = runOne(cfg, proto, "rc", "bfs");
        EXPECT_EQ(r.checkerViolations, 0u) << proto;
        EXPECT_EQ(r.stats.get("gpu.kernels_run"), 3u);
    }
}
