#include "sim/event_queue.hh"

#include <gtest/gtest.h>

#include <array>
#include <vector>

using gtsc::sim::EventQueue;

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(2); });
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(3); });
    q.runUntil(15);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    q.runUntil(25);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameCycleFiresInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&order, i] { order.push_back(i); });
    q.runUntil(7);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbackMayScheduleSameCycle)
{
    EventQueue q;
    int hits = 0;
    q.schedule(3, [&] {
        ++hits;
        q.schedule(3, [&] { ++hits; });
    });
    q.runUntil(3);
    EXPECT_EQ(hits, 2);
}

TEST(EventQueue, NowReflectsRunUntil)
{
    EventQueue q;
    gtsc::Cycle seen = 0;
    q.schedule(4, [&] { seen = q.now(); });
    q.runUntil(9);
    EXPECT_EQ(seen, 9u);
}

TEST(EventQueue, NextEventCycle)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventCycle(), gtsc::kCycleNever);
    q.schedule(42, [] {});
    EXPECT_EQ(q.nextEventCycle(), 42u);
}

TEST(EventQueue, LargeCapturesStillFireInOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        // A capture too big for std::function's inline buffer takes
        // the heap path through the same queue as the small events.
        std::array<int, 40> blob{};
        blob[0] = i;
        q.schedule(6, [&order, blob] { order.push_back(blob[0]); });
        q.schedule(6, [&order, i] { order.push_back(100 + i); });
    }
    q.runUntil(6);
    EXPECT_EQ(order,
              (std::vector<int>{0, 100, 1, 101, 2, 102, 3, 103}));
}
