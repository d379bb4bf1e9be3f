#include "mem/cache_array.hh"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

using namespace gtsc;
using mem::CacheArray;
using mem::CacheBlock;

namespace
{

Addr
line(std::uint64_t i)
{
    return i * mem::kLineBytes;
}

} // namespace

TEST(CacheArray, GeometryFromSizeAndAssoc)
{
    CacheArray c(16 * 1024, 4);
    EXPECT_EQ(c.assoc(), 4u);
    EXPECT_EQ(c.numSets(), 16u * 1024 / (4 * mem::kLineBytes));
    EXPECT_EQ(c.sizeBytes(), 16u * 1024);
}

TEST(CacheArray, RejectsBadGeometry)
{
    EXPECT_THROW(CacheArray(1000, 4), std::runtime_error);
    EXPECT_THROW(CacheArray(16 * 1024, 0), std::runtime_error);
    // 3 sets: not a power of two.
    EXPECT_THROW(CacheArray(3 * 2 * mem::kLineBytes, 2),
                 std::runtime_error);
}

TEST(CacheArray, InsertThenLookup)
{
    CacheArray c(4 * 1024, 4);
    EXPECT_EQ(c.lookup(line(5)), nullptr);
    CacheBlock *v = c.victim(line(5));
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(v->valid);
    c.insert(*v, line(5));
    CacheBlock *b = c.lookup(line(5));
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->lineAddr, line(5));
    EXPECT_TRUE(b->valid);
    EXPECT_FALSE(b->dirty);
}

TEST(CacheArray, LookupFindsALineInEveryWayOfAFullSet)
{
    // 4 sets x 8 ways; lines 0, 4, 8, ... all map to set 0.
    CacheArray c(4 * 8 * mem::kLineBytes, 8);
    for (std::uint64_t w = 0; w < 8; ++w) {
        CacheBlock *v = c.victim(line(4 * w));
        ASSERT_NE(v, nullptr);
        ASSERT_FALSE(v->valid);
        c.insert(*v, line(4 * w));
    }
    // Touch in reverse way order: recency and way order disagree.
    for (std::uint64_t w = 8; w-- > 0;)
        c.touch(*c.lookup(line(4 * w)));
    std::set<const CacheBlock *> found;
    for (std::uint64_t w = 0; w < 8; ++w) {
        CacheBlock *b = c.lookup(line(4 * w));
        ASSERT_NE(b, nullptr) << "line " << w;
        EXPECT_EQ(b->lineAddr, line(4 * w));
        found.insert(b);
    }
    EXPECT_EQ(found.size(), 8u); // one way each
    // Full set, still a miss for a ninth line of the same set.
    EXPECT_EQ(c.lookup(line(32)), nullptr);
}

TEST(CacheArray, LruVictimSelection)
{
    CacheArray c(2 * mem::kLineBytes, 2); // 1 set, 2 ways
    CacheBlock *v0 = c.victim(line(0));
    c.insert(*v0, line(0));
    CacheBlock *v1 = c.victim(line(1));
    c.insert(*v1, line(1));
    // Touch line 0 so line 1 is LRU.
    c.touch(*c.lookup(line(0)));
    CacheBlock *v2 = c.victim(line(2));
    ASSERT_NE(v2, nullptr);
    EXPECT_EQ(v2->lineAddr, line(1));
}

TEST(CacheArray, VictimRespectsPredicate)
{
    CacheArray c(2 * mem::kLineBytes, 2);
    c.insert(*c.victim(line(0)), line(0));
    c.insert(*c.victim(line(1)), line(1));
    // Nothing evictable -> nullptr (TC delayed eviction).
    auto none = [](const CacheBlock &) { return false; };
    EXPECT_EQ(c.victim(line(2), none), nullptr);
    // Only line 0 evictable.
    auto only0 = [](const CacheBlock &b) { return b.lineAddr == 0; };
    CacheBlock *v = c.victim(line(2), only0);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->lineAddr, line(0));
}

TEST(CacheArray, VictimReturnsAnInvalidWayWithoutAskingThePredicate)
{
    CacheArray c(4 * mem::kLineBytes, 4); // 1 set, 4 ways
    c.insert(*c.victim(line(0)), line(0));
    c.insert(*c.victim(line(1)), line(1));
    c.invalidate(*c.lookup(line(0))); // way 0 invalid, way 1 valid
    int asked = 0;
    auto pinned = [&](const CacheBlock &) {
        ++asked;
        return false;
    };
    CacheBlock *v = c.victim(line(2), pinned);
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(v->valid);
    EXPECT_EQ(asked, 0);
    // With no invalid way left, every valid way is asked once.
    c.insert(*v, line(2));
    c.insert(*c.victim(line(3)), line(3));
    c.insert(*c.victim(line(4)), line(4));
    EXPECT_EQ(c.victim(line(5), pinned), nullptr);
    EXPECT_EQ(asked, 4);
}

TEST(CacheArray, SetIndexingSeparatesSets)
{
    CacheArray c(4 * mem::kLineBytes, 1); // 4 sets, direct mapped
    for (std::uint64_t i = 0; i < 4; ++i)
        c.insert(*c.victim(line(i)), line(i));
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_NE(c.lookup(line(i)), nullptr);
    // line(4) conflicts with line(0) only.
    CacheBlock *v = c.victim(line(4));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->lineAddr, line(0));
}

TEST(CacheArray, InvalidateAllAndForEach)
{
    CacheArray c(4 * 1024, 4);
    c.insert(*c.victim(line(1)), line(1));
    c.insert(*c.victim(line(2)), line(2));
    int count = 0;
    c.forEachValid([&](CacheBlock &) { ++count; });
    EXPECT_EQ(count, 2);
    c.invalidateAll();
    count = 0;
    c.forEachValid([&](CacheBlock &) { ++count; });
    EXPECT_EQ(count, 0);
    EXPECT_EQ(c.lookup(line(1)), nullptr);
}

TEST(CacheArray, InsertResetsMetadata)
{
    CacheArray c(4 * 1024, 4);
    CacheBlock *v = c.victim(line(3));
    c.insert(*v, line(3));
    v->meta.wts = 99;
    v->dirty = true;
    v->data.setWord(5, 0xabcd);
    // Re-insert another line into the same block.
    v->valid = false;
    c.insert(*v, line(3));
    EXPECT_EQ(v->meta.wts, 0u);
    EXPECT_FALSE(v->dirty);
    EXPECT_EQ(v->data.word(5), 0u) << "insert clears the payload";
}
