/**
 * Equivalence tests for the main loop's jump over idle cycles.
 *
 * On a cycle where no component was due, the loop jumps straight to
 * the earliest armed work; parked SMs account the skipped span
 * lazily. The jump must be invisible: for every protocol and
 * workload, a run that jumps must produce a bit-identical statistics
 * dump (every counter, histogram and distribution) and the same
 * final cycle count as a run that stops at every cycle. The loop
 * never jumps past a timeline sample, so sampling every cycle (on
 * one narrow counter, to keep the series small) makes it visit each
 * cycle and settle the SMs' deferred accounting there. The matrix
 * below crosses the coherence protocols with a litmus kernel
 * (fine-grained synchronisation, frequent short stalls) and a
 * coherent workload (long DRAM-bound quiet phases, where skipping
 * actually pays).
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"

using namespace gtsc;

namespace
{

struct Case
{
    const char *protocol;
    const char *consistency;
    const char *workload;
};

const Case kCases[] = {
    {"gtsc", "sc", "mp"},   {"gtsc", "rc", "cc"},
    {"tc", "sc", "mp"},     {"tc", "rc", "cc"},
    {"noncoh", "sc", "mp"}, {"noncoh", "rc", "ccp"},
};

sim::Config
smallConfig()
{
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 4);
    cfg.setInt("gpu.warps_per_sm", 4);
    cfg.setInt("gpu.num_partitions", 2);
    cfg.setDouble("wl.scale", 0.5);
    return cfg;
}

// Names the case in test listings. Without a printer gtest dumps the
// struct's bytes, whose pointers change the ctest name on every build.
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.protocol << '/' << c.consistency << '/' << c.workload;
}

class FastForwardEquivalence : public ::testing::TestWithParam<Case>
{
};

} // namespace

TEST_P(FastForwardEquivalence, StatsBitIdentical)
{
    const Case &c = GetParam();

    sim::Config everyCycle = smallConfig();
    everyCycle.setInt("obs.sample_interval", 1);
    everyCycle.set("obs.sample_keys", "sm.instructions");
    harness::RunResult slow = harness::runOne(
        everyCycle, c.protocol, c.consistency, c.workload);

    harness::RunResult fast = harness::runOne(
        smallConfig(), c.protocol, c.consistency, c.workload);

    EXPECT_EQ(slow.cycles, fast.cycles);
    EXPECT_EQ(slow.checkerViolations, fast.checkerViolations);
    // Some cells legitimately fail workload verification (noncoh on
    // a message-passing litmus reads stale data by design); jumping
    // must not change the outcome either way.
    EXPECT_EQ(slow.verified, fast.verified);
    // The whole point: every stat — counters, histograms,
    // distributions — is byte-for-byte the same.
    EXPECT_EQ(slow.stats.toString(), fast.stats.toString());
    // The run sampled every cycle must never skip one.
    EXPECT_EQ(slow.fastForwarded, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FastForwardEquivalence, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(info.param.protocol) + "_" +
               info.param.consistency + "_" + info.param.workload;
    });

/**
 * The jump must actually fire somewhere, or the equivalence matrix
 * above is vacuous. CCP (private, memory-bound) has long stretches
 * where every warp waits on DRAM. This is the plain configuration the
 * figures run, with no timeline to cap the jumps; the ccp hot-path
 * golden checks the same under 200-cycle sampling.
 */
TEST(FastForward, SkipsCyclesOnMemoryBoundWorkload)
{
    harness::RunResult r =
        harness::runOne(smallConfig(), "gtsc", "rc", "ccp");
    EXPECT_GT(r.fastForwarded, 0u);
    EXPECT_LT(r.fastForwarded, r.cycles);
}
