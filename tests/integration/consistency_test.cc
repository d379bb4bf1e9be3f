/**
 * Memory-consistency litmus tests run on the full simulator.
 *
 *  - Message passing (mp): with fences, the consumer that saw the
 *    flag must see the data — on every protocol and model.
 *  - Store buffering (sb): with fences between the store and load,
 *    both threads observing the initial value is forbidden.
 *
 * Each litmus runs across protocols, models and several seeds (the
 * seed perturbs timing through the workload scale).
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "workloads/common.hh"

using namespace gtsc;
using harness::RunResult;
using harness::runOne;

namespace
{

sim::Config
litmusConfig(std::uint64_t seed)
{
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 4);
    cfg.setInt("gpu.warps_per_sm", 4);
    cfg.setInt("gpu.num_partitions", 2);
    cfg.setInt("l1.size_bytes", 4 * 1024);
    cfg.setInt("l2.partition_bytes", 32 * 1024);
    cfg.setInt("wl.seed", static_cast<std::int64_t>(seed));
    return cfg;
}

struct LitmusParam
{
    const char *protocol;
    const char *consistency;
};

// Names the case in test listings. Without a printer gtest dumps the
// struct's bytes, whose pointers change the ctest name on every build.
void
PrintTo(const LitmusParam &p, std::ostream *os)
{
    *os << p.protocol << '/' << p.consistency;
}

class LitmusMatrix : public ::testing::TestWithParam<LitmusParam>
{
};

} // namespace

TEST_P(LitmusMatrix, MessagePassingObservesData)
{
    const auto &p = GetParam();
    for (std::uint64_t seed : {1, 2, 3}) {
        RunResult r = runOne(litmusConfig(seed), p.protocol,
                             p.consistency, "mp");
        EXPECT_EQ(r.checkerViolations, 0u)
            << p.protocol << "/" << p.consistency << " seed " << seed;
        EXPECT_EQ(r.spinGiveups, 0u)
            << "consumer must eventually see the flag";
        EXPECT_TRUE(r.verified)
            << "flag seen but stale data read: " << p.protocol << "/"
            << p.consistency;
    }
}

TEST_P(LitmusMatrix, StoreBufferingWithFencesForbidden)
{
    const auto &p = GetParam();
    for (std::uint64_t seed : {1, 2, 3, 4}) {
        sim::Config cfg = litmusConfig(seed);
        RunResult r = runOne(cfg, p.protocol, p.consistency, "sb");
        EXPECT_EQ(r.checkerViolations, 0u)
            << p.protocol << "/" << p.consistency;
        EXPECT_TRUE(r.verified)
            << "forbidden SB outcome (0,0) observed on " << p.protocol
            << "/" << p.consistency << " seed " << seed;
    }
}

TEST_P(LitmusMatrix, CoRRNeverTravelsBackInTime)
{
    const auto &p = GetParam();
    for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
        RunResult r = runOne(litmusConfig(seed), p.protocol,
                             p.consistency, "corr");
        EXPECT_EQ(r.checkerViolations, 0u)
            << p.protocol << "/" << p.consistency;
        EXPECT_TRUE(r.verified)
            << "coRR violated (new then old) on " << p.protocol << "/"
            << p.consistency << " seed " << seed;
    }
}

TEST_P(LitmusMatrix, IriwAgreementUnderSc)
{
    const auto &p = GetParam();
    if (std::string(p.consistency) != "sc")
        GTEST_SKIP() << "IRIW disagreement is only forbidden "
                        "under SC (write atomicity)";
    for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
        RunResult r = runOne(litmusConfig(seed), p.protocol,
                             p.consistency, "iriw");
        EXPECT_EQ(r.checkerViolations, 0u) << p.protocol;
        EXPECT_TRUE(r.verified)
            << "IRIW readers disagreed on store order under SC: "
            << p.protocol << " seed " << seed;
    }
}

TEST(LitmusGtsc, IriwAgreementEvenUnderRc)
{
    // Timestamp order is a total order on stores, so G-TSC keeps
    // write atomicity in *logical* time even under RC.
    for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
        RunResult r = runOne(litmusConfig(seed), "gtsc", "rc", "iriw");
        EXPECT_EQ(r.checkerViolations, 0u);
        EXPECT_TRUE(r.verified) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, LitmusMatrix,
    ::testing::Values(LitmusParam{"gtsc", "sc"},
                      LitmusParam{"gtsc", "rc"},
                      LitmusParam{"tc", "sc"}, LitmusParam{"tc", "rc"},
                      LitmusParam{"nol1", "sc"},
                      LitmusParam{"nol1", "rc"}),
    [](const ::testing::TestParamInfo<LitmusParam> &info) {
        return std::string(info.param.protocol) + "_" +
               info.param.consistency;
    });
