#include "mem/mshr.hh"

#include <gtest/gtest.h>

#include <vector>

using namespace gtsc;
using mem::Mshr;
using mem::MshrEntry;

TEST(Mshr, AllocFindFree)
{
    Mshr m(4);
    EXPECT_EQ(m.find(0x80), nullptr);
    MshrEntry *e = m.alloc(0x80);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->lineAddr, 0x80u);
    EXPECT_EQ(m.find(0x80), e);
    EXPECT_EQ(m.size(), 1u);
    m.free(0x80);
    EXPECT_EQ(m.find(0x80), nullptr);
    EXPECT_EQ(m.size(), 0u);
}

TEST(Mshr, CapacityEnforced)
{
    Mshr m(2);
    EXPECT_NE(m.alloc(0x000), nullptr);
    EXPECT_NE(m.alloc(0x080), nullptr);
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.alloc(0x100), nullptr);
    m.free(0x000);
    EXPECT_FALSE(m.full());
    EXPECT_NE(m.alloc(0x100), nullptr);
}

TEST(Mshr, WaitersMergeInOrder)
{
    Mshr m(4);
    MshrEntry *e = m.alloc(0x80);
    for (std::uint64_t i = 0; i < 3; ++i) {
        mem::Access a;
        a.id = i;
        e->waiters.push_back(a);
    }
    ASSERT_EQ(e->waiters.size(), 3u);
    EXPECT_EQ(e->waiters[0].id, 0u);
    EXPECT_EQ(e->waiters[2].id, 2u);
}

TEST(Mshr, ClearEmptiesTable)
{
    Mshr m(4);
    m.alloc(0x80);
    m.alloc(0x100);
    m.clear();
    EXPECT_EQ(m.size(), 0u);
}

TEST(Mshr, ForEachVisitsInLineOrder)
{
    Mshr m(4);
    m.alloc(0x180);
    m.alloc(0x080);
    m.alloc(0x100);
    m.free(0x080);
    m.alloc(0x000);
    std::vector<Addr> lines;
    m.forEach([&lines](const MshrEntry &e) { lines.push_back(e.lineAddr); });
    EXPECT_EQ(lines, (std::vector<Addr>{0x000, 0x100, 0x180}));
}
