/**
 * FSM-level tests of the G-TSC private-cache controller (Figures
 * 1a, 2, 3, 7, 8 and the Section V mechanisms), driving access()/
 * receiveResponse() directly and capturing outgoing packets.
 */

#include "core/gtsc_l1.hh"

#include <gtest/gtest.h>

#include "core/gtsc_builder.hh"

using namespace gtsc;
using core::GtscL1;
using core::TsDomain;
using mem::Access;
using mem::AccessResult;
using mem::MsgType;
using mem::Packet;

namespace
{

class GtscL1Fixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg.setInt("gpu.warps_per_sm", 4);
        cfg.setInt("gpu.num_partitions", 2);
        cfg.setInt("l1.size_bytes", 2 * 1024);
        cfg.setInt("l1.assoc", 2);
        cfg.setInt("l1.mshr_entries", 4);
        cfg.setInt("gtsc.lease", 10);
        makeL1();
    }

    void
    makeL1()
    {
        domain = std::make_unique<TsDomain>(cfg, stats);
        l1 = std::make_unique<GtscL1>(0, cfg, stats, events, *domain,
                                      nullptr);
        l1->setSend([this](Packet &&p) { sent.push_back(p); });
        l1->setLoadDone([this](const Access &a, const AccessResult &r) {
            loadsDone.emplace_back(a, r);
        });
        l1->setStoreDone([this](const Access &a, Cycle) {
            storesDone.push_back(a);
        });
    }

    Access
    load(Addr line, WarpId warp, std::uint32_t mask = 0x1)
    {
        Access a;
        a.lineAddr = line;
        a.wordMask = mask;
        a.warp = warp;
        a.id = nextId++;
        return a;
    }

    Access
    store(Addr line, WarpId warp, std::uint32_t value,
          std::uint32_t mask = 0x1)
    {
        Access a = load(line, warp, mask);
        a.isStore = true;
        for (unsigned w = 0; w < mem::kWordsPerLine; ++w) {
            if (mask & (1u << w))
                a.storeData.setWord(w, value);
        }
        return a;
    }

    Packet
    fill(Addr line, Ts wts, Ts rts, std::uint32_t word0 = 0)
    {
        Packet p;
        p.type = MsgType::BusFill;
        p.lineAddr = line;
        p.wts = wts;
        p.rts = rts;
        p.data.setWord(0, word0);
        return p;
    }

    /** Advance the clock, running events and L1 replays. */
    void
    advance(unsigned cycles = 12)
    {
        for (unsigned i = 0; i < cycles; ++i) {
            ++now;
            events.runUntil(now);
            l1->tick(now);
        }
    }

    sim::Config cfg;
    sim::StatSet stats;
    sim::EventQueue events;
    std::unique_ptr<TsDomain> domain;
    std::unique_ptr<GtscL1> l1;
    std::vector<Packet> sent;
    std::vector<std::pair<Access, AccessResult>> loadsDone;
    std::vector<Access> storesDone;
    std::uint64_t nextId = 1;
    Cycle now = 0;
};

TEST_F(GtscL1Fixture, ColdMissSendsBusRdWithZeroWts)
{
    EXPECT_TRUE(l1->access(load(0x1000, 0), now));
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].type, MsgType::BusRd);
    EXPECT_EQ(sent[0].lineAddr, 0x1000u);
    EXPECT_EQ(sent[0].wts, 0u);
    EXPECT_EQ(sent[0].warpTs, 1u); // warps start at ts 1
    EXPECT_EQ(stats.get("l1.miss_cold"), 1u);
    EXPECT_EQ(stats.get("l1.renewals_sent"), 0u);
}

TEST_F(GtscL1Fixture, RequestsCombineInMshr)
{
    l1->access(load(0x1000, 0), now);
    l1->access(load(0x1000, 1), now);
    l1->access(load(0x1000, 2), now);
    EXPECT_EQ(sent.size(), 1u) << "one BusRd for three warps";
    EXPECT_EQ(stats.get("l1.merged"), 2u);

    l1->receiveResponse(fill(0x1000, 2, 12, 77), now);
    advance();
    EXPECT_EQ(loadsDone.size(), 3u);
    for (const auto &[a, r] : loadsDone) {
        EXPECT_EQ(r.data.word(0), 77u);
        EXPECT_GE(r.loadTs, 2u);
        EXPECT_LE(r.loadTs, 12u);
    }
}

TEST_F(GtscL1Fixture, HitAdvancesWarpTsToWts)
{
    l1->access(load(0x1000, 0), now);
    l1->receiveResponse(fill(0x1000, 5, 15), now);
    advance();
    loadsDone.clear();

    EXPECT_TRUE(l1->access(load(0x1000, 1), now));
    EXPECT_EQ(sent.size(), 1u) << "hit: no new request";
    EXPECT_EQ(l1->warpTs(1), 5u) << "warp ts = max(1, wts=5)";
    advance();
    ASSERT_EQ(loadsDone.size(), 1u);
    EXPECT_TRUE(loadsDone[0].second.l1Hit);
    EXPECT_EQ(loadsDone[0].second.loadTs, 5u);
    EXPECT_EQ(stats.get("l1.hits"), 1u);
}

TEST_F(GtscL1Fixture, ExpiredLeaseSendsRenewalWithLocalWts)
{
    l1->access(load(0x1000, 0), now);
    l1->receiveResponse(fill(0x1000, 5, 15), now);
    advance();
    sent.clear();

    // Spin boosts advance the warp's clock past the lease.
    l1->noteSpinRetry(0, 0x1000);
    l1->noteSpinRetry(0, 0x1000);
    ASSERT_GT(l1->warpTs(0), 15u);
    l1->access(load(0x1000, 0), now);
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].type, MsgType::BusRd);
    EXPECT_EQ(sent[0].wts, 5u) << "renewal carries the local wts";
    EXPECT_EQ(stats.get("l1.miss_expired"), 1u);
    EXPECT_EQ(stats.get("l1.renewals_sent"), 1u);
}

TEST_F(GtscL1Fixture, RenewalResponseExtendsLeaseAndCompletes)
{
    l1->access(load(0x1000, 0), now);
    l1->receiveResponse(fill(0x1000, 5, 15, 42), now);
    advance();
    l1->noteSpinRetry(0, 0x1000);
    l1->noteSpinRetry(0, 0x1000);
    Ts boosted = l1->warpTs(0);
    l1->access(load(0x1000, 0), now);
    loadsDone.clear();

    Packet rnw;
    rnw.type = MsgType::BusRnw;
    rnw.lineAddr = 0x1000;
    rnw.rts = boosted + 10;
    l1->receiveResponse(std::move(rnw), now);
    advance();
    ASSERT_EQ(loadsDone.size(), 1u);
    EXPECT_EQ(loadsDone[0].second.data.word(0), 42u)
        << "renewal reuses the cached data";
    EXPECT_EQ(loadsDone[0].second.loadTs, boosted);
}

TEST_F(GtscL1Fixture, StoreIsWriteThroughAndLocksLine)
{
    l1->access(load(0x1000, 0), now);
    l1->receiveResponse(fill(0x1000, 5, 15), now);
    advance();
    sent.clear();

    // Store from warp 1.
    l1->access(store(0x1000, 1, 99), now);
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].type, MsgType::BusWr);
    EXPECT_EQ(sent[0].data.word(0), 99u);
    std::uint64_t req = sent[0].reqId;

    // Update visibility (option 1): loads to the line are blocked.
    loadsDone.clear();
    l1->access(load(0x1000, 2), now);
    advance();
    EXPECT_TRUE(loadsDone.empty()) << "load must wait for the ack";
    EXPECT_EQ(stats.get("l1.lock_parks"), 1u);

    // Ack completes the store, updates the lease, releases waiters.
    Packet ack;
    ack.type = MsgType::BusWrAck;
    ack.lineAddr = 0x1000;
    ack.reqId = req;
    ack.wts = 16;
    ack.rts = 26;
    ack.prevWts = 5;
    l1->receiveResponse(std::move(ack), now);
    advance();
    EXPECT_EQ(storesDone.size(), 1u);
    EXPECT_EQ(l1->warpTs(1), 16u) << "writer warp ts matches wts";
    ASSERT_EQ(loadsDone.size(), 1u);
    EXPECT_EQ(loadsDone[0].second.data.word(0), 99u);
    EXPECT_GE(loadsDone[0].second.loadTs, 16u);
}

TEST_F(GtscL1Fixture, StaleBaseVersionInvalidatesOnAck)
{
    l1->access(load(0x1000, 0), now);
    l1->receiveResponse(fill(0x1000, 5, 15), now);
    advance();
    sent.clear();

    l1->access(store(0x1000, 1, 99), now);
    std::uint64_t req = sent[0].reqId;

    // Another SM's store interleaved at L2: prevWts != our base (5).
    Packet ack;
    ack.type = MsgType::BusWrAck;
    ack.lineAddr = 0x1000;
    ack.reqId = req;
    ack.wts = 30;
    ack.rts = 40;
    ack.prevWts = 20;
    l1->receiveResponse(std::move(ack), now);
    advance();
    EXPECT_EQ(stats.get("l1.store_base_stale"), 1u);

    // Next load must miss (the local copy self-invalidated).
    sent.clear();
    l1->access(load(0x1000, 2), now);
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].type, MsgType::BusRd);
    EXPECT_EQ(sent[0].wts, 0u);
}

TEST_F(GtscL1Fixture, StoreMissDoesNotAllocate)
{
    l1->access(store(0x2000, 0, 7), now);
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].type, MsgType::BusWr);

    Packet ack;
    ack.type = MsgType::BusWrAck;
    ack.lineAddr = 0x2000;
    ack.reqId = sent[0].reqId;
    ack.wts = 11;
    ack.rts = 21;
    l1->receiveResponse(std::move(ack), now);
    advance();
    EXPECT_EQ(storesDone.size(), 1u);

    // Line is still not resident: a load cold-misses.
    sent.clear();
    l1->access(load(0x2000, 0), now);
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].wts, 0u);
    EXPECT_EQ(stats.get("l1.miss_cold"), 1u);
}

TEST_F(GtscL1Fixture, DualCopyOptionServesOldDataToOtherWarps)
{
    cfg.set("gtsc.update_visibility", "dualcopy");
    makeL1();

    l1->access(load(0x1000, 0), now);
    l1->receiveResponse(fill(0x1000, 5, 15, 42), now);
    advance();
    sent.clear();
    loadsDone.clear();

    l1->access(store(0x1000, 1, 99), now);
    // Another warp reads the *old* copy (write atomicity relaxed in
    // logical order: the read is logically before the store).
    l1->access(load(0x1000, 2), now);
    advance();
    ASSERT_EQ(loadsDone.size(), 1u);
    EXPECT_EQ(loadsDone[0].second.data.word(0), 42u);
    // The writer itself must wait.
    loadsDone.clear();
    l1->access(load(0x1000, 1), now);
    advance();
    EXPECT_TRUE(loadsDone.empty());

    Packet ack;
    ack.type = MsgType::BusWrAck;
    ack.lineAddr = 0x1000;
    ack.reqId = sent[0].reqId;
    ack.wts = 16;
    ack.rts = 26;
    ack.prevWts = 5;
    l1->receiveResponse(std::move(ack), now);
    advance();
    ASSERT_EQ(loadsDone.size(), 1u);
    EXPECT_EQ(loadsDone[0].second.data.word(0), 99u)
        << "after the ack the writer sees its own store";
}

TEST_F(GtscL1Fixture, ForwardAllSendsOneRequestPerWarp)
{
    cfg.setBool("gtsc.combine_mshr", false);
    makeL1();
    l1->access(load(0x1000, 0), now);
    l1->access(load(0x1000, 1), now);
    l1->access(load(0x1000, 2), now);
    EXPECT_EQ(sent.size(), 3u) << "forward-all: no combining";
}

TEST_F(GtscL1Fixture, MshrFullRejects)
{
    for (Addr line = 0; line < 4; ++line)
        EXPECT_TRUE(l1->access(load(0x10000 + line * 128, 0), now));
    EXPECT_FALSE(l1->access(load(0x20000, 1), now));
    EXPECT_EQ(stats.get("l1.rejects_mshr_full"), 1u);
}

TEST_F(GtscL1Fixture, EveryAcceptingEntryPointMovesRejectGeneration)
{
    unsigned moves = 0;
    l1->setGenerationHook([&moves] { ++moves; });
    std::uint64_t gen = l1->rejectGeneration();
    ASSERT_NE(gen, 0u) << "G-TSC keeps a reject generation";
    auto moved = [&]() {
        bool m = l1->rejectGeneration() != gen;
        gen = l1->rejectGeneration();
        return m;
    };

    // Accepted accesses: misses, a merge, a hit (below), a store.
    for (Addr line = 0; line < 4; ++line) {
        EXPECT_TRUE(l1->access(load(0x10000 + line * 128, 0), now));
        EXPECT_TRUE(moved()) << "miss " << line;
    }
    EXPECT_TRUE(l1->access(load(0x10000, 1), now));
    EXPECT_TRUE(moved()) << "merge";

    // A reject leaves it alone and records what it bumped; a retry
    // at the same generation repeats exactly that.
    std::uint64_t tags = stats.get("l1.tag_accesses");
    for (int i = 0; i < 2; ++i) {
        EXPECT_FALSE(l1->access(load(0x20000, 2), now));
        EXPECT_FALSE(moved());
        EXPECT_EQ(stats.get("l1.tag_accesses"), tags + i + 1);
        EXPECT_EQ(stats.get("l1.rejects_mshr_full"), i + 1u);
    }
    EXPECT_EQ(l1->lastReject().counters[0],
              &stats.counter("l1.tag_accesses"));
    EXPECT_EQ(l1->lastReject().counters[1],
              &stats.counter("l1.rejects_mshr_full"));

    // A response, and the replays a tick accepts.
    l1->receiveResponse(fill(0x10000, 5, 15), now);
    EXPECT_TRUE(moved()) << "response";
    EXPECT_TRUE(l1->access(load(0x10000, 3), now));
    EXPECT_TRUE(moved()) << "hit";
    for (Addr line = 1; line < 4; ++line)
        l1->receiveResponse(fill(0x10000 + line * 128, 5, 15), now);
    moved();
    EXPECT_TRUE(l1->access(store(0x10000, 0, 7), now));
    EXPECT_TRUE(moved()) << "store";
    EXPECT_TRUE(l1->access(load(0x10000, 1), now)); // parks behind it
    moved();
    Packet ack;
    ack.type = MsgType::BusWrAck;
    ack.lineAddr = 0x10000;
    ack.reqId = sent.back().reqId;
    ack.wts = 16;
    ack.rts = 26;
    ack.prevWts = 5;
    l1->receiveResponse(std::move(ack), now);
    moved();
    ++now;
    l1->tick(now); // the parked load replays and is accepted
    EXPECT_TRUE(moved()) << "replaying tick";
    advance();
    moved();

    l1->noteSpinRetry(0, 0x10000);
    EXPECT_TRUE(moved()) << "spin retry";
    core::L1VerifyState snap = l1->captureVerifyState();
    l1->restoreVerifyState(snap);
    EXPECT_TRUE(moved()) << "verify restore";
    EXPECT_TRUE(l1->verifyEvictLine(0x10080));
    EXPECT_TRUE(moved()) << "verify evict";
    EXPECT_FALSE(l1->verifyEvictLine(0x30000));
    EXPECT_FALSE(moved()) << "nothing evicted";
    ASSERT_TRUE(l1->quiescent());
    l1->flush(now);
    EXPECT_TRUE(moved()) << "flush";
    EXPECT_EQ(moves, l1->rejectGeneration() - 1) << "hook fires per move";
}

TEST_F(GtscL1Fixture, WriteBufferFullRejectRecordsItsCounter)
{
    cfg.set("gtsc.update_visibility", "writebuffer");
    cfg.setInt("gtsc.write_buffer_entries", 1);
    makeL1();
    EXPECT_TRUE(l1->access(store(0x1000, 0, 1), now));
    std::uint64_t gen = l1->rejectGeneration();
    EXPECT_FALSE(l1->access(store(0x2000, 1, 2), now));
    EXPECT_EQ(l1->rejectGeneration(), gen);
    EXPECT_EQ(l1->lastReject().counters[0],
              &stats.counter("l1.tag_accesses"));
    EXPECT_EQ(l1->lastReject().counters[1],
              &stats.counter("l1.wb_full_rejects"));
    EXPECT_EQ(stats.get("l1.wb_full_rejects"), 1u);
}

TEST_F(GtscL1Fixture, TsDomainResetMovesRejectGeneration)
{
    unsigned moves = 0;
    l1->setGenerationHook([&moves] { ++moves; });
    std::uint64_t gen = l1->rejectGeneration();
    domain->triggerReset();
    EXPECT_EQ(l1->rejectGeneration(), gen + 1);
    EXPECT_EQ(moves, 1u);
}

TEST_F(GtscL1Fixture, TsResetResponseFlushesAndRewinds)
{
    l1->access(load(0x1000, 0), now);
    l1->receiveResponse(fill(0x1000, 5, 15), now);
    advance();
    ASSERT_EQ(l1->warpTs(0), 5u);

    // The domain resets (as if another bank overflowed); a response
    // carrying the new epoch makes this L1 adopt it.
    domain->triggerReset();
    Packet f = fill(0x2000, 1, 10);
    f.epoch = 1;
    f.tsReset = true;
    l1->access(load(0x2000, 0), now); // re-request in flight
    l1->receiveResponse(std::move(f), now);
    advance();
    EXPECT_EQ(l1->warpTs(0), 1u) << "warp timestamps rewound";
    // The pre-reset line was flushed.
    sent.clear();
    l1->access(load(0x1000, 1), now);
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].wts, 0u) << "cold after flush";
}

TEST_F(GtscL1Fixture, KernelFlushResetsWarpTimestamps)
{
    l1->access(load(0x1000, 0), now);
    l1->receiveResponse(fill(0x1000, 7, 17), now);
    advance();
    EXPECT_EQ(l1->warpTs(0), 7u);
    EXPECT_TRUE(l1->quiescent());
    l1->flush(now);
    EXPECT_EQ(l1->warpTs(0), 1u);
    sent.clear();
    l1->access(load(0x1000, 0), now);
    EXPECT_EQ(stats.get("l1.miss_cold"), 2u);
}

TEST_F(GtscL1Fixture, SecondStoreToLineWaitsForFirst)
{
    l1->access(load(0x1000, 0), now);
    l1->receiveResponse(fill(0x1000, 5, 15), now);
    advance();
    sent.clear();

    l1->access(store(0x1000, 0, 1), now);
    l1->access(store(0x1000, 1, 2), now);
    EXPECT_EQ(sent.size(), 1u) << "second store parks behind first";

    Packet ack;
    ack.type = MsgType::BusWrAck;
    ack.lineAddr = 0x1000;
    ack.reqId = sent[0].reqId;
    ack.wts = 16;
    ack.rts = 26;
    ack.prevWts = 5;
    l1->receiveResponse(std::move(ack), now);
    advance();
    ASSERT_EQ(sent.size(), 2u) << "second store released";
    EXPECT_EQ(sent[1].type, MsgType::BusWr);
    EXPECT_EQ(sent[1].data.word(0), 2u);
}

} // namespace
