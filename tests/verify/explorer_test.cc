/**
 * @file
 * The exhaustive explorer: smoke enumeration of a reduced space
 * (complete, clean, fast) with its exact state/transition counts
 * pinned, determinism, the state cap's boundary, mutation catching
 * with a minimized witness, and the 8-bit rollover sweep actually
 * crossing epoch resets.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "verify/explorer.hh"

using namespace gtsc;
using namespace gtsc::verify;

namespace
{

sim::Config
smokeConfig()
{
    sim::Config cfg;
    cfg.setInt("verify.ops_per_thread", 2);
    return cfg;
}

/** Size of the 1-line smoke space (the canonical-state quotient). */
constexpr std::uint64_t kSmokeStates = 17585;
constexpr std::uint64_t kSmokeTransitions = 38950;

sim::Config
smokeOneLineConfig()
{
    sim::Config cfg = smokeConfig();
    cfg.setInt("verify.lines", 1);
    return cfg;
}

sim::Config
rolloverConfig()
{
    sim::Config cfg;
    cfg.setInt("gtsc.ts_bits", 8);
    cfg.setInt("gtsc.lease", 10);
    cfg.setInt("verify.boosts", 1);
    cfg.setInt("gtsc.spin_ts_boost", 245);
    cfg.setInt("verify.lines", 1);
    cfg.setInt("verify.ops_per_thread", 2);
    return cfg;
}

} // namespace

TEST(VerifyExplorer, SmokeEnumerationIsCompleteAndClean)
{
    // CTest smoke bound: a reduced space (1 line, 2 ops) enumerates
    // completely in a couple of seconds, orders of magnitude under
    // the 30s budget.
    auto result = explore(smokeOneLineConfig());
    for (const auto &w : result.witnesses)
        ADD_FAILURE() << w.report;
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result.stats.complete);
    EXPECT_EQ(result.stats.truncated, 0u);
    // The exact quotient: any change that merges or splits states
    // moves these.
    EXPECT_EQ(result.stats.statesVisited, kSmokeStates);
    EXPECT_EQ(result.stats.transitions, kSmokeTransitions);
    EXPECT_EQ(result.stats.deduped, 21366u);
    EXPECT_EQ(result.stats.terminals, 475u);
    EXPECT_EQ(result.stats.maxDepth, 20u);
}

TEST(VerifyExplorer, EnumerationIsDeterministic)
{
    sim::Config cfg = smokeOneLineConfig();
    auto a = explore(cfg);
    auto b = explore(cfg);
    EXPECT_EQ(a.stats.statesVisited, b.stats.statesVisited);
    EXPECT_EQ(a.stats.transitions, b.stats.transitions);
    EXPECT_EQ(a.stats.deduped, b.stats.deduped);
    EXPECT_EQ(a.stats.terminals, b.stats.terminals);
}

TEST(VerifyExplorer, StateCapOfExactlyTheSpaceStillCloses)
{
    // The cap only trips on a unique state beyond it, so a space of
    // exactly max_states states is complete with every transition
    // checked.
    sim::Config cfg = smokeOneLineConfig();
    cfg.setInt("verify.max_states", kSmokeStates);
    auto result = explore(cfg);
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result.stats.complete);
    EXPECT_EQ(result.stats.statesVisited, kSmokeStates);
    EXPECT_EQ(result.stats.transitions, kSmokeTransitions);

    cfg.setInt("verify.max_states", kSmokeStates - 1);
    auto capped = explore(cfg);
    EXPECT_TRUE(capped.ok());
    EXPECT_FALSE(capped.stats.complete);
    EXPECT_EQ(capped.stats.statesVisited, kSmokeStates - 1);
    EXPECT_LT(capped.stats.transitions, kSmokeTransitions);
}

TEST(VerifyExplorer, StateCapTruncatesAndReportsIncomplete)
{
    sim::Config cfg = smokeConfig();
    cfg.setInt("verify.max_states", 500);
    auto result = explore(cfg);
    EXPECT_TRUE(result.ok());
    EXPECT_FALSE(result.stats.complete);
    EXPECT_EQ(result.stats.statesVisited, 500u);
}

TEST(VerifyExplorer, CatchesBrokenLeaseCheckWithMinimizedWitness)
{
    sim::Config cfg = smokeConfig();
    cfg.set("verify.mutation", "write_ignores_lease");
    auto result = explore(cfg);
    ASSERT_FALSE(result.ok());
    const Witness &w = result.witnesses.front();
    EXPECT_FALSE(w.violations.empty());
    // Minimized: the shortest known repro is 5 actions (load, two
    // deliveries, store, delivery); allow slack but require real
    // shrinking versus arbitrary DFS paths.
    EXPECT_LE(w.actions.size(), 8u);
    EXPECT_GE(w.actions.size(), 3u);
    // The witness report carries the transcript in the obs format.
    EXPECT_NE(w.report.find("violations:"), std::string::npos);
    EXPECT_NE(w.report.find("message transcript:"), std::string::npos);
    EXPECT_NE(w.report.find("BusRd"), std::string::npos);
}

TEST(VerifyExplorer, CatchesBrokenRenewalMatching)
{
    sim::Config cfg;
    cfg.setInt("verify.ops_per_thread", 3);
    cfg.set("verify.mutation", "renew_mismatched_wts");
    auto result = explore(cfg);
    ASSERT_FALSE(result.ok());
    EXPECT_FALSE(result.witnesses.front().violations.empty());
}

TEST(VerifyExplorer, RolloverSweepCrossesEpochsCleanly)
{
    // With epoch expansion forbidden the explorer must truncate:
    // proof that 8-bit overflow resets are genuinely reachable.
    sim::Config capped = rolloverConfig();
    capped.setInt("verify.max_epochs", 1);
    capped.setInt("verify.max_states", 20000);
    auto guard = explore(capped);
    EXPECT_TRUE(guard.ok());
    EXPECT_GT(guard.stats.truncated, 0u);

    // A bounded slice of the full rollover space stays violation
    // free (the complete ~540k-state closure runs in CI, not here).
    sim::Config cfg = rolloverConfig();
    cfg.setInt("verify.max_states", 60000);
    auto result = explore(cfg);
    for (const auto &w : result.witnesses)
        ADD_FAILURE() << w.report;
    EXPECT_TRUE(result.ok());
}
