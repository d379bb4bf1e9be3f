/**
 * @file
 * Canonicalization and hashing: states that differ only in history
 * (absolute request ids, held-message arrival order across SMs) must
 * key identically; states that differ in behaviour must not. Every
 * relation on the reference key canonicalKey() must also hold on
 * canonicalHash(), which is what the explorer dedups on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "verify/model.hh"
#include "verify/shrink.hh"
#include "verify/state.hh"

using namespace gtsc;
using namespace gtsc::verify;

namespace
{

WorldState
smallState()
{
    sim::Config cfg;
    ModelSim model(cfg);
    return model.init().state;
}

} // namespace

TEST(VerifyState, CanonicalKeyIsDeterministic)
{
    WorldState a = smallState();
    WorldState b = smallState();
    EXPECT_EQ(canonicalKey(a), canonicalKey(b));
    EXPECT_EQ(canonicalHash(a), canonicalHash(b));
}

TEST(VerifyState, NextAccessIdIsHistoryNotBehaviour)
{
    WorldState a = smallState();
    WorldState b = a;
    b.nextAccessId += 1000;
    EXPECT_EQ(canonicalKey(a), canonicalKey(b));
    EXPECT_EQ(canonicalHash(a), canonicalHash(b));
}

TEST(VerifyState, PendingPacketOrderAcrossSmsIsCanonicalized)
{
    WorldState a = smallState();
    mem::Packet p0;
    p0.type = mem::MsgType::BusRd;
    p0.lineAddr = kVerifyBase;
    p0.src = 0;
    mem::Packet p1 = p0;
    p1.src = 1;

    WorldState b = a;
    a.reqs.push_back(p0);
    a.reqs.push_back(p1);
    b.reqs.push_back(p1);
    b.reqs.push_back(p0);
    EXPECT_EQ(canonicalKey(a), canonicalKey(b));
    EXPECT_EQ(canonicalHash(a), canonicalHash(b));

    // Same-SM order is FIFO delivery order: NOT canonicalized.
    mem::Packet p0b = p0;
    p0b.type = mem::MsgType::BusWr;
    WorldState c = smallState();
    WorldState d = c;
    c.reqs = {p0, p0b};
    d.reqs = {p0b, p0};
    EXPECT_NE(canonicalKey(c), canonicalKey(d));
    EXPECT_NE(canonicalHash(c), canonicalHash(d));
}

TEST(VerifyState, RequestIdsAreRenumberedOrderPreserving)
{
    WorldState a = smallState();
    WorldState b = a;
    auto mk = [](std::uint64_t id) {
        mem::Packet p;
        p.type = mem::MsgType::BusWr;
        p.lineAddr = kVerifyBase;
        p.reqId = id;
        return p;
    };
    // (3, 7) and (13, 27): same relative order, different absolutes.
    a.reqs = {mk(3), mk(7)};
    b.reqs = {mk(13), mk(27)};
    EXPECT_EQ(canonicalKey(a), canonicalKey(b));
    EXPECT_EQ(canonicalHash(a), canonicalHash(b));

    // Inverted relative order is different behaviour.
    WorldState c = a;
    c.reqs = {mk(7), mk(3)};
    EXPECT_NE(canonicalKey(a), canonicalKey(c));
    EXPECT_NE(canonicalHash(a), canonicalHash(c));
}

TEST(VerifyState, BehaviourDifferencesChangeTheKey)
{
    WorldState a = smallState();

    WorldState b = a;
    b.threads[0].issued++;
    EXPECT_NE(canonicalKey(a), canonicalKey(b));
    EXPECT_NE(canonicalHash(a), canonicalHash(b));

    WorldState c = a;
    c.domain.epoch++;
    EXPECT_NE(canonicalKey(a), canonicalKey(c));
    EXPECT_NE(canonicalHash(a), canonicalHash(c));

    WorldState d = a;
    d.l2.memTs++;
    EXPECT_NE(canonicalKey(a), canonicalKey(d));
    EXPECT_NE(canonicalHash(a), canonicalHash(d));

    WorldState e = a;
    e.memLines[0].setWord(0, 0x1234);
    EXPECT_NE(canonicalKey(a), canonicalKey(e));
    EXPECT_NE(canonicalHash(a), canonicalHash(e));
}

TEST(VerifyState, HashSplitsDifferentKeys)
{
    // One flipped bit in one field changes both 64-bit halves of the
    // hash (full-avalanche finish); reusing a scratch is invisible.
    WorldState a = smallState();
    CanonicalScratch scratch;
    const Hash128 h = canonicalHash(a, scratch);
    EXPECT_EQ(h, canonicalHash(a));
    for (unsigned bit = 0; bit < 32; ++bit)
    {
        WorldState b = a;
        b.memLines.back().setWord(mem::kWordsPerLine - 1, 1u << bit);
        const Hash128 hb = canonicalHash(b, scratch);
        EXPECT_NE(canonicalKey(a), canonicalKey(b));
        EXPECT_NE(h.lo, hb.lo) << "bit " << bit;
        EXPECT_NE(h.hi, hb.hi) << "bit " << bit;
    }
}

TEST(VerifyState, HashQuotientMatchesKeyQuotient)
{
    // Breadth-first over the first few thousand states of the default
    // model: hashes split exactly the states the keys split.
    sim::Config cfg;
    ModelSim model(cfg);
    std::vector<WorldState> queue{model.init().state};
    std::set<std::string> keys{canonicalKey(queue.front())};
    std::set<std::pair<std::uint64_t, std::uint64_t>> hashes;
    CanonicalScratch scratch;
    const Hash128 root = canonicalHash(queue.front(), scratch);
    hashes.emplace(root.lo, root.hi);
    for (std::size_t i = 0; i < queue.size() && queue.size() < 3000; ++i)
    {
        for (const Action &act : model.enabledActions(queue[i]))
        {
            WorldState s = model.step(queue[i], act).state;
            const Hash128 h = canonicalHash(s, scratch);
            const bool newKey = keys.insert(canonicalKey(s)).second;
            const bool newHash = hashes.emplace(h.lo, h.hi).second;
            EXPECT_EQ(newKey, newHash);
            if (newKey)
                queue.push_back(std::move(s));
        }
    }
    EXPECT_GT(keys.size(), 1000u);
    EXPECT_EQ(keys.size(), hashes.size());
}

TEST(VerifyShrink, DdminIsOneMinimal)
{
    // Fails iff the sequence contains both 3 and 7.
    auto fails = [](const std::vector<int> &v) {
        bool has3 = false, has7 = false;
        for (int x : v)
        {
            has3 |= x == 3;
            has7 |= x == 7;
        }
        return has3 && has7;
    };
    std::vector<int> input = {1, 2, 3, 4, 5, 6, 7, 8};
    auto out = ddmin(input, fails);
    EXPECT_EQ(out, (std::vector<int>{3, 7}));
}

TEST(VerifyShrink, DdminKeepsOrder)
{
    // Fails iff 7 appears before 3 somewhere.
    auto fails = [](const std::vector<int> &v) {
        int seen7 = 0;
        for (int x : v)
        {
            if (x == 7)
                seen7 = 1;
            if (x == 3 && seen7)
                return true;
        }
        return false;
    };
    std::vector<int> input = {9, 7, 1, 3, 7, 2};
    auto out = ddmin(input, fails);
    EXPECT_EQ(out, (std::vector<int>{7, 3}));
}
