#include "sim/slot_pool.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

using gtsc::sim::PooledKeyMap;
using gtsc::sim::SlotPool;

TEST(SlotPool, SlotsStayPutWhileThePoolGrows)
{
    SlotPool<int> pool;
    std::uint32_t first = pool.acquire();
    pool[first] = 7;
    int *addr = &pool[first];
    for (int i = 0; i < 1000; ++i)
        pool[pool.acquire()] = i;
    EXPECT_EQ(&pool[first], addr);
    EXPECT_EQ(pool[first], 7);
    EXPECT_EQ(pool.allocated(), 1001u);
    EXPECT_EQ(pool.live(), 1001u);
}

TEST(SlotPool, LastReleasedIsFirstReused)
{
    SlotPool<int> pool;
    std::uint32_t a = pool.acquire();
    std::uint32_t b = pool.acquire();
    std::uint32_t c = pool.acquire();
    pool[b] = 42;
    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.live(), 1u);
    // Released slots come back newest first, contents intact.
    EXPECT_EQ(pool.acquire(), b);
    EXPECT_EQ(pool[b], 42);
    EXPECT_EQ(pool.acquire(), a);
    EXPECT_NE(pool.acquire(), c); // freelist empty: a new slot
    EXPECT_EQ(pool.allocated(), 4u);
}

TEST(PooledKeyMap, FindEmplaceEraseContainsClear)
{
    PooledKeyMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(5), nullptr);
    EXPECT_FALSE(m.contains(5));

    m.emplace(5) = 50;
    m.emplace(9) = 90;
    EXPECT_EQ(m.size(), 2u);
    ASSERT_NE(m.find(5), nullptr);
    EXPECT_EQ(*m.find(5), 50);
    EXPECT_TRUE(m.contains(9));
    *m.find(9) = 91;
    EXPECT_EQ(*m.find(9), 91);

    EXPECT_TRUE(m.erase(5));
    EXPECT_FALSE(m.erase(5));
    EXPECT_FALSE(m.contains(5));
    EXPECT_EQ(m.find(5), nullptr);
    EXPECT_EQ(m.size(), 1u);

    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_FALSE(m.contains(9));
    EXPECT_FALSE(m.erase(9));
    m.emplace(9) = 1; // a cleared key can come back
    EXPECT_EQ(*m.find(9), 1);
}

TEST(PooledKeyMap, ForEachVisitsInKeyOrderAfterErase)
{
    PooledKeyMap<std::uint64_t, int> m;
    for (std::uint64_t k : {40, 10, 30, 50, 20})
        m.emplace(k) = static_cast<int>(k) + 1;
    EXPECT_TRUE(m.erase(20));
    EXPECT_TRUE(m.erase(50)); // the last key
    m.emplace(25) = 26;       // reuses a released slot
    using Seen = std::vector<std::pair<std::uint64_t, int>>;
    Seen seen;
    m.forEach([&seen](std::uint64_t k, int v) { seen.emplace_back(k, v); });
    EXPECT_EQ(seen, (Seen{{10, 11}, {25, 26}, {30, 31}, {40, 41}}));
}

TEST(PooledKeyMap, ValueCapacitySurvivesEraseAndReEmplace)
{
    PooledKeyMap<std::uint64_t, std::vector<int>> m;
    std::vector<int> &waiters = m.emplace(7);
    waiters.assign(64, 1);
    const int *buffer = waiters.data();
    EXPECT_TRUE(m.erase(7));

    // The recycled value is stale: same object, same buffer. Callers
    // clear it, and the capacity carries over to the next key.
    std::vector<int> &again = m.emplace(8);
    EXPECT_EQ(again.size(), 64u);
    again.clear();
    EXPECT_GE(again.capacity(), 64u);
    EXPECT_EQ(again.data(), buffer);
}
