#include "sim/time_wheel.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

using gtsc::sim::TimeWheel;
using gtsc::Cycle;
using gtsc::kCycleNever;

namespace
{

std::vector<std::uint32_t> pop(TimeWheel &w, Cycle now)
{
    std::vector<std::uint32_t> due;
    w.popDue(now, due);
    return due;
}

} // namespace

TEST(TimeWheel, StartsParked)
{
    TimeWheel w(4);
    EXPECT_FALSE(w.anyArmed());
    EXPECT_EQ(w.nextWake(), kCycleNever);
    EXPECT_TRUE(pop(w, 100).empty());
}

TEST(TimeWheel, PopsDueAscendingAndDisarms)
{
    TimeWheel w(8);
    w.arm(5, 10);
    w.arm(2, 10);
    w.arm(7, 11);
    EXPECT_EQ(w.nextWake(), 10u);
    EXPECT_TRUE(pop(w, 9).empty());
    EXPECT_EQ(pop(w, 10), (std::vector<std::uint32_t>{2, 5}));
    EXPECT_FALSE(w.armed(2));
    EXPECT_TRUE(w.armed(7));
    EXPECT_EQ(w.nextWake(), 11u);
    EXPECT_EQ(pop(w, 11), (std::vector<std::uint32_t>{7}));
    EXPECT_FALSE(w.anyArmed());
}

TEST(TimeWheel, MinMergeKeepsEarliestArm)
{
    TimeWheel w(2);
    w.arm(0, 20);
    w.arm(0, 5); // earlier wins
    w.arm(0, 30); // later is a no-op
    EXPECT_EQ(w.armedAt(0), 5u);
    EXPECT_EQ(pop(w, 5), (std::vector<std::uint32_t>{0}));
    // The later arms at 20 and 30 must not resurrect the id.
    EXPECT_TRUE(pop(w, 40).empty());
}

TEST(TimeWheel, WakeAtCurrentCycleDefersToNextPop)
{
    TimeWheel w(2);
    // Drain through cycle 7, then wake "at" 7 — the component's
    // phase already passed, so it becomes due at the next cycle.
    EXPECT_TRUE(pop(w, 7).empty());
    w.arm(1, 7);
    EXPECT_EQ(w.armedAt(1), 8u);
    EXPECT_EQ(w.nextWake(), 8u);
    EXPECT_EQ(pop(w, 8), (std::vector<std::uint32_t>{1}));
}

TEST(TimeWheel, ReArmWhileParkedAfterPop)
{
    TimeWheel w(3);
    w.arm(2, 4);
    EXPECT_EQ(pop(w, 4), (std::vector<std::uint32_t>{2}));
    w.arm(2, 9);
    EXPECT_EQ(w.nextWake(), 9u);
    EXPECT_TRUE(pop(w, 8).empty());
    EXPECT_EQ(pop(w, 9), (std::vector<std::uint32_t>{2}));
}

TEST(TimeWheel, ArmPopRoundsDisarmEveryPoppedId)
{
    TimeWheel w(4);
    // Many arm/pop rounds, each arming one id a few cycles ahead and
    // id 3 further ahead, so ids pop while others stay armed.
    for (Cycle c = 1; c <= 40; ++c) {
        w.arm(c % 4u, c + 3);
        w.arm(3, c + 11);
        auto due = pop(w, c);
        for (std::uint32_t id : due)
            EXPECT_EQ(w.armedAt(id), kCycleNever);
    }
    // Drain everything left.
    auto rest = pop(w, 100);
    EXPECT_FALSE(w.anyArmed());
    EXPECT_FALSE(rest.empty());
}

TEST(TimeWheel, LaterArmWaitsForItsOwnCycle)
{
    TimeWheel w(4);
    EXPECT_TRUE(pop(w, 0).empty()); // frontier at 1
    w.arm(0, 3);
    w.arm(1, 3 + 8);
    EXPECT_EQ(pop(w, 3), (std::vector<std::uint32_t>{0}));
    EXPECT_TRUE(pop(w, 10).empty());
    EXPECT_EQ(pop(w, 11), (std::vector<std::uint32_t>{1}));
}

TEST(TimeWheel, FarArmsPopTogetherOnOneJump)
{
    TimeWheel w(5);
    w.arm(0, 1000);
    w.arm(1, 500);
    w.arm(2, 2);
    EXPECT_EQ(w.nextWake(), 2u);
    EXPECT_EQ(pop(w, 2), (std::vector<std::uint32_t>{2}));
    EXPECT_EQ(w.nextWake(), 500u);
    // Jump straight past both far arms: one popDue finds both.
    EXPECT_EQ(pop(w, 1000), (std::vector<std::uint32_t>{0, 1}));
    EXPECT_FALSE(w.anyArmed());
}

TEST(TimeWheel, EarlierReArmReplacesTheLaterArm)
{
    TimeWheel w(2);
    w.arm(0, 900);
    w.arm(0, 3); // earlier: the arm at 900 is gone
    EXPECT_EQ(pop(w, 3), (std::vector<std::uint32_t>{0}));
    EXPECT_TRUE(pop(w, 900).empty());
    // Parked again: a fresh arm still works.
    w.arm(0, 950);
    EXPECT_EQ(pop(w, 950), (std::vector<std::uint32_t>{0}));
}

TEST(TimeWheel, LongJumpPopsEveryIdAndMovesTheFrontier)
{
    TimeWheel w(6);
    for (std::uint32_t id = 0; id < 6; ++id)
        w.arm(id, 2 + id);
    // Jump far beyond every arm in one pop.
    EXPECT_EQ(pop(w, 1 << 20),
              (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
    EXPECT_FALSE(w.anyArmed());
    // Frontier moved: new arms clamp to the post-jump cycle.
    w.arm(0, 5);
    EXPECT_EQ(w.armedAt(0), (1u << 20) + 1);
}

TEST(TimeWheel, ResetParksEverything)
{
    TimeWheel w(3);
    w.arm(0, 5);
    w.arm(1, 600);
    w.reset(3);
    EXPECT_FALSE(w.anyArmed());
    EXPECT_TRUE(pop(w, 1000).empty());
    w.arm(2, 1001);
    EXPECT_EQ(pop(w, 1001), (std::vector<std::uint32_t>{2}));
}
