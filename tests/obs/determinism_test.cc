/**
 * Tracing must observe, never steer: a traced run produces the same
 * stat dump as an untraced one. The traces themselves are pinned by
 * the hot-path goldens (tests/integration/hot_path_equivalence_test).
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "obs/session.hh"

using namespace gtsc;

TEST(TraceDeterminism, TracingDoesNotPerturbTheRun)
{
    // Stat dumps must be bit-identical with tracing on and off: the
    // tracer observes, never steers.
    sim::Config off;
    off.setInt("gpu.num_sms", 4);
    off.setInt("gpu.warps_per_sm", 4);
    off.setInt("gpu.num_partitions", 2);
    off.setDouble("wl.scale", 0.5);
    harness::RunResult plain = harness::runOne(off, "gtsc", "rc", "mp");

    sim::Config on = off;
    on.setBool("obs.trace", true);
    on.setInt("obs.sample_interval", 200);
    harness::RunResult traced = harness::runOne(on, "gtsc", "rc", "mp");
    EXPECT_EQ(plain.cycles, traced.cycles);
    EXPECT_EQ(plain.stats.toString(), traced.stats.toString());
    // Something must actually have been traced for this to mean
    // anything.
    ASSERT_NE(traced.obs, nullptr);
    EXPECT_GT(traced.obs->tracer()->totalRecorded(), 0u);
    EXPECT_GT(traced.obs->transcript()->totalLogged(), 0u);
    EXPECT_GT(traced.obs->timeline()->numSamples(), 0u);
}
