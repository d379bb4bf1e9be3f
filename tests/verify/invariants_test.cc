/**
 * @file
 * The invariant evaluators, fed known-good and hand-crafted
 * known-bad states. A real settled snapshot from the model must pass
 * everything; each targeted corruption must trip exactly its check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "verify/invariants.hh"
#include "verify/model.hh"

using namespace gtsc;
using namespace gtsc::verify;

namespace
{

struct Fixture
{
    sim::Config cfg;
    ModelSim model;
    WorldState good;
    InvariantParams params;

    Fixture() : model(cfg)
    {
        auto init = model.init();
        EXPECT_TRUE(init.violations.empty());
        good = init.state;
        params = model.invariantParams();

        // Give the state one resident line in each cache so the
        // cross-level checks have something to look at.
        core::VerifyLineState line;
        line.lineAddr = model.lineAddr(0);
        line.meta.wts = 5;
        line.meta.rts = 15;
        line.meta.epoch = 0;
        good.l2.lines.push_back(line);
        good.l1[0].lines.push_back(line);
        good.l2.memTs = 15;
    }

    static bool
    has(const std::vector<std::string> &violations,
        const std::string &name)
    {
        return std::any_of(violations.begin(), violations.end(),
                           [&](const std::string &v) {
                               return v.rfind(name + ":", 0) == 0;
                           });
    }
};

} // namespace

TEST(VerifyInvariants, SettledSnapshotIsClean)
{
    Fixture f;
    EXPECT_TRUE(checkStateInvariants(f.good, f.params).empty());
    EXPECT_TRUE(checkTransitionInvariants(f.good, f.good).empty());
}

TEST(VerifyInvariants, WtsAboveRtsTrips)
{
    Fixture f;
    WorldState bad = f.good;
    bad.l2.lines[0].meta.wts = bad.l2.lines[0].meta.rts + 1;
    EXPECT_TRUE(
        Fixture::has(checkStateInvariants(bad, f.params), "WtsRtsOrder"));
}

TEST(VerifyInvariants, TimestampPastWidthTrips)
{
    Fixture f;
    WorldState bad = f.good;
    bad.l1[0].warpTs[0] = f.params.tsMax + 1;
    EXPECT_TRUE(
        Fixture::has(checkStateInvariants(bad, f.params), "TsBound"));
}

TEST(VerifyInvariants, StaleEpochResidentLineTrips)
{
    Fixture f;
    WorldState bad = f.good;
    bad.domain.epoch = 1;
    bad.l1[0].epoch = 1; // adopted, but the line below was not flushed
    EXPECT_TRUE(Fixture::has(checkStateInvariants(bad, f.params),
                             "L1LineEpoch"));
}

TEST(VerifyInvariants, L1NewerThanL2Trips)
{
    Fixture f;
    WorldState bad = f.good;
    bad.l1[0].lines[0].meta.wts = bad.l2.lines[0].meta.wts + 1;
    bad.l1[0].lines[0].meta.rts = bad.l2.lines[0].meta.rts + 1;
    EXPECT_TRUE(Fixture::has(checkStateInvariants(bad, f.params),
                             "L1L2Containment"));
}

TEST(VerifyInvariants, StaleL1LeaseOverlappingNewerVersionTrips)
{
    Fixture f;
    WorldState bad = f.good;
    // L2 moved to version 10; the L1 still holds version 5 with a
    // lease reaching past 10.
    bad.l2.lines[0].meta.wts = 10;
    bad.l2.lines[0].meta.rts = 20;
    bad.l1[0].lines[0].meta.rts = 12;
    EXPECT_TRUE(Fixture::has(checkStateInvariants(bad, f.params),
                             "L1L2Containment"));
}

TEST(VerifyInvariants, LeaseBeyondMemTsAfterL2EvictTrips)
{
    Fixture f;
    WorldState bad = f.good;
    bad.l2.lines.clear(); // line gone from L2, lease not folded
    bad.l2.memTs = bad.l1[0].lines[0].meta.rts - 1;
    EXPECT_TRUE(Fixture::has(checkStateInvariants(bad, f.params),
                             "MemTsDominance"));
}

TEST(VerifyInvariants, SameVersionDifferentDataTrips)
{
    Fixture f;
    WorldState bad = f.good;
    bad.l1[0].lines[0].data.setWord(3, 0xbad);
    EXPECT_TRUE(Fixture::has(checkStateInvariants(bad, f.params),
                             "SameVersionSameData"));

    // A store-locked line is exempt (merged words precede the ack).
    bad.l1[0].storeByLine.push_back({bad.l1[0].lines[0].lineAddr, 9});
    bad.l1[0].pendingStores.emplace_back();
    bad.l1[0].pendingStores.back().id = 9;
    bad.l1[0].pendingStores.back().access.lineAddr =
        bad.l1[0].lines[0].lineAddr;
    EXPECT_FALSE(Fixture::has(checkStateInvariants(bad, f.params),
                              "SameVersionSameData"));
}

TEST(VerifyInvariants, OrphanedStoreLockTrips)
{
    Fixture f;
    WorldState bad = f.good;
    bad.l1[0].storeByLine.push_back({f.model.lineAddr(1), 42});
    EXPECT_TRUE(Fixture::has(checkStateInvariants(bad, f.params),
                             "StoreLockConsistency"));
}

TEST(VerifyInvariants, DeadMshrEntryTrips)
{
    Fixture f;
    WorldState bad = f.good;
    core::L1VerifyState::MshrEntryState entry;
    entry.lineAddr = f.model.lineAddr(0);
    entry.requestSent = true;
    entry.outstanding = 0; // expects no response: lost message
    entry.lockWait = false;
    entry.waiterCount = 1;
    bad.l1[0].mshr.push_back(entry);
    bad.l1[0].mshrWaiters.emplace_back();
    EXPECT_TRUE(
        Fixture::has(checkStateInvariants(bad, f.params), "MshrLive"));
}

TEST(VerifyInvariants, EpochRewindTrips)
{
    Fixture f;
    WorldState after = f.good;
    WorldState before = f.good;
    before.domain.epoch = 2;
    after.domain.epoch = 1;
    EXPECT_TRUE(Fixture::has(checkTransitionInvariants(before, after),
                             "EpochMonotone"));
}

TEST(VerifyInvariants, SameEpochTimeRewindsTrip)
{
    Fixture f;
    WorldState before = f.good;

    WorldState after = f.good;
    after.l2.memTs = before.l2.memTs - 1;
    EXPECT_TRUE(Fixture::has(checkTransitionInvariants(before, after),
                             "MemTsMonotone"));

    after = f.good;
    after.l2.lines[0].meta.wts = before.l2.lines[0].meta.wts - 1;
    EXPECT_TRUE(Fixture::has(checkTransitionInvariants(before, after),
                             "L2WtsMonotone"));

    after = f.good;
    after.l1[0].warpTs[0] = 10;
    WorldState before2 = f.good;
    before2.l1[0].warpTs[0] = 11;
    EXPECT_TRUE(Fixture::has(checkTransitionInvariants(before2, after),
                             "WarpTsMonotone"));

    // Across an epoch change every rewind is by design.
    after = f.good;
    after.domain.epoch = before.domain.epoch + 1;
    after.l2.memTs = 1;
    EXPECT_TRUE(checkTransitionInvariants(before, after).empty());
}
