/**
 * FSM-level tests of the G-TSC shared-cache controller (Figures 1b,
 * 4, 5, 6; non-inclusion Sec V-C; overflow Sec V-D).
 */

#include "core/gtsc_l2.hh"

#include <gtest/gtest.h>

using namespace gtsc;
using core::GtscL2;
using core::TsDomain;
using mem::MsgType;
using mem::Packet;

namespace
{

class GtscL2Fixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg.setInt("l2.partition_bytes", 1024); // 8 lines
        cfg.setInt("l2.assoc", 2);
        cfg.setInt("l2.access_latency", 2);
        cfg.setInt("gtsc.lease", 10);
        makeL2();
    }

    void
    makeL2()
    {
        domain = std::make_unique<TsDomain>(cfg, stats);
        dram = std::make_unique<mem::DramChannel>(cfg, stats, events,
                                                  memory, "dram");
        l2 = std::make_unique<GtscL2>(0, cfg, stats, events, *dram,
                                      memory, *domain, nullptr);
        l2->setSend([this](Packet &&p) { sent.push_back(p); });
    }

    Packet
    busRd(Addr line, Ts wts, Ts warp_ts, SmId src = 0)
    {
        Packet p;
        p.type = MsgType::BusRd;
        p.lineAddr = line;
        p.wts = wts;
        p.warpTs = warp_ts;
        p.src = src;
        p.reqId = nextId++;
        return p;
    }

    Packet
    busWr(Addr line, Ts warp_ts, std::uint32_t value, SmId src = 0)
    {
        Packet p;
        p.type = MsgType::BusWr;
        p.lineAddr = line;
        p.warpTs = warp_ts;
        p.wordMask = 0x1;
        p.data.setWord(0, value);
        p.src = src;
        p.reqId = nextId++;
        return p;
    }

    /** Run until responses drain (or the cycle budget runs out). */
    void
    advance(unsigned cycles = 400)
    {
        for (unsigned i = 0; i < cycles; ++i) {
            ++now;
            events.runUntil(now);
            l2->tick(now);
            dram->tick(now);
        }
    }

    const Packet *
    lastOfType(MsgType t) const
    {
        for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
            if (it->type == t)
                return &*it;
        }
        return nullptr;
    }

    sim::Config cfg;
    sim::StatSet stats;
    sim::EventQueue events;
    mem::MainMemory memory;
    std::unique_ptr<TsDomain> domain;
    std::unique_ptr<mem::DramChannel> dram;
    std::unique_ptr<GtscL2> l2;
    std::vector<Packet> sent;
    std::uint64_t nextId = 1;
    Cycle now = 0;
};

TEST_F(GtscL2Fixture, MissFetchesFromDramAndFills)
{
    memory.writeWord(0x1000, 123);
    l2->receiveRequest(busRd(0x1000, 0, 1), now);
    advance();
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].type, MsgType::BusFill);
    EXPECT_EQ(sent[0].data.word(0), 123u);
    EXPECT_EQ(sent[0].wts, 1u) << "wts = mem_ts";
    EXPECT_EQ(sent[0].rts, 11u) << "rts = mem_ts + lease";
    EXPECT_EQ(stats.get("l2.misses"), 1u);
    EXPECT_TRUE(l2->quiescent());
}

TEST_F(GtscL2Fixture, MatchingWtsYieldsDataLessRenewal)
{
    l2->receiveRequest(busRd(0x1000, 0, 1), now);
    advance();
    sent.clear();
    // Requester still has version wts=1; warp clock moved to 20.
    l2->receiveRequest(busRd(0x1000, 1, 20), now);
    advance();
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].type, MsgType::BusRnw);
    EXPECT_EQ(sent[0].rts, 30u) << "rts = warp_ts + lease";
    EXPECT_EQ(stats.get("l2.renewals"), 1u);
}

TEST_F(GtscL2Fixture, MismatchedWtsYieldsFill)
{
    l2->receiveRequest(busRd(0x1000, 0, 1), now);
    advance();
    l2->receiveRequest(busWr(0x1000, 1, 99), now);
    advance();
    sent.clear();
    // Requester has the old version (wts=1): data changed -> fill.
    l2->receiveRequest(busRd(0x1000, 1, 2), now);
    advance();
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].type, MsgType::BusFill);
    EXPECT_EQ(sent[0].data.word(0), 99u);
}

TEST_F(GtscL2Fixture, StoreSchedulesAfterOutstandingLeases)
{
    // Fig 9 step 8: write to a block leased to [1,11] gets wts 12.
    l2->receiveRequest(busRd(0x1000, 0, 1), now);
    advance();
    sent.clear();
    l2->receiveRequest(busWr(0x1000, 1, 55), now);
    advance();
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].type, MsgType::BusWrAck);
    EXPECT_EQ(sent[0].wts, 12u) << "wts = rts + 1, no stall";
    EXPECT_EQ(sent[0].rts, 22u);
    EXPECT_EQ(sent[0].prevWts, 1u);
}

TEST_F(GtscL2Fixture, StoreWithLargeWarpTsUsesIt)
{
    l2->receiveRequest(busRd(0x1000, 0, 1), now);
    advance();
    sent.clear();
    l2->receiveRequest(busWr(0x1000, 50, 55), now);
    advance();
    ASSERT_EQ(sent[0].wts, 50u) << "wts = max(rts+1, warp_ts)";
}

TEST_F(GtscL2Fixture, StoreMissFetchesThenPerforms)
{
    memory.writeWord(0x1004, 7);
    l2->receiveRequest(busWr(0x1000, 1, 55), now);
    advance();
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].type, MsgType::BusWrAck);
    sent.clear();
    // Line now holds merged data: DRAM word 1 preserved.
    l2->receiveRequest(busRd(0x1000, 0, 1), now);
    advance();
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].data.word(0), 55u);
    EXPECT_EQ(sent[0].data.word(1), 7u);
}

TEST_F(GtscL2Fixture, EvictionFoldsRtsIntoMemTs)
{
    // 8 lines, 2-way, 4 sets: lines 0x000,0x200,0x400 share set 0.
    l2->receiveRequest(busRd(0x000, 0, 30), now); // rts 40
    advance();
    l2->receiveRequest(busRd(0x200, 0, 1), now);
    advance();
    l2->receiveRequest(busRd(0x400, 0, 1), now); // evicts 0x000
    advance();
    EXPECT_EQ(stats.get("l2.evictions"), 1u);
    EXPECT_GE(l2->memTs(), 40u) << "mem_ts >= evicted rts";

    // Refetch of the evicted line starts at mem_ts.
    sent.clear();
    l2->receiveRequest(busRd(0x000, 0, 1), now);
    advance();
    const Packet *f = lastOfType(MsgType::BusFill);
    ASSERT_NE(f, nullptr);
    EXPECT_GE(f->wts, 40u);
}

TEST_F(GtscL2Fixture, DirtyEvictionWritesBack)
{
    l2->receiveRequest(busWr(0x000, 1, 99), now);
    advance();
    l2->receiveRequest(busRd(0x200, 0, 1), now);
    advance();
    l2->receiveRequest(busRd(0x400, 0, 1), now);
    advance();
    EXPECT_EQ(stats.get("l2.writebacks"), 1u);
    advance(200); // drain the DRAM write
    EXPECT_EQ(memory.readWord(0x000), 99u);
}

TEST_F(GtscL2Fixture, RequestsToMissingLineMergeInL2Mshr)
{
    l2->receiveRequest(busRd(0x1000, 0, 1, 0), now);
    l2->receiveRequest(busRd(0x1000, 0, 1, 1), now);
    l2->receiveRequest(busWr(0x1000, 1, 5, 2), now);
    advance();
    EXPECT_EQ(stats.get("l2.misses"), 1u) << "one DRAM fetch";
    EXPECT_EQ(stats.get("dram.reads"), 1u);
    unsigned fills = 0;
    unsigned acks = 0;
    for (const auto &p : sent) {
        fills += (p.type == MsgType::BusFill);
        acks += (p.type == MsgType::BusWrAck);
    }
    EXPECT_EQ(fills, 2u);
    EXPECT_EQ(acks, 1u);
}

TEST_F(GtscL2Fixture, OverflowTriggersDomainReset)
{
    l2->receiveRequest(busRd(0x1000, 0, 1), now);
    advance();
    sent.clear();
    // A renewal that would push rts past tsMax forces a reset.
    Ts huge = domain->tsMax() - 2;
    l2->receiveRequest(busRd(0x1000, 1, huge), now);
    advance();
    EXPECT_EQ(domain->epoch(), 1u);
    EXPECT_EQ(stats.get("gtsc.ts_resets"), 1u);
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_TRUE(sent[0].tsReset);
    EXPECT_LE(sent[0].rts, domain->tsMax());
    EXPECT_EQ(l2->memTs(), 1u) << "mem_ts rewound";
}

TEST_F(GtscL2Fixture, StaleEpochRequestIsNormalized)
{
    l2->receiveRequest(busRd(0x1000, 0, 1), now);
    advance();
    domain->triggerReset();
    sent.clear();
    // A pre-reset request with a huge warp ts must not re-overflow.
    Packet p = busRd(0x1000, 0, domain->tsMax() - 1);
    p.epoch = 0;
    l2->receiveRequest(std::move(p), now);
    advance();
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_TRUE(sent[0].tsReset);
    EXPECT_EQ(sent[0].rts, 1u + domain->lease());
    EXPECT_EQ(domain->epoch(), 1u) << "no second reset";
}

TEST_F(GtscL2Fixture, AdaptiveLeaseGrowsWithRenewals)
{
    cfg.setBool("gtsc.adaptive_lease", true);
    cfg.setInt("gtsc.max_lease", 80);
    makeL2();

    l2->receiveRequest(busRd(0x1000, 0, 1), now);
    advance();
    sent.clear();

    // Consecutive renewals: each grant stretches the lease.
    Ts prev_span = 0;
    Ts warp_ts = 20;
    for (int i = 0; i < 3; ++i) {
        l2->receiveRequest(busRd(0x1000, 1, warp_ts), now);
        advance();
        ASSERT_EQ(sent.back().type, MsgType::BusRnw);
        Ts span = sent.back().rts - warp_ts;
        EXPECT_GT(span, prev_span) << "lease grew on renewal " << i;
        prev_span = span;
        warp_ts = sent.back().rts + 1;
    }
    EXPECT_GT(stats.get("gtsc.adaptive_extensions"), 0u);

    // The growth is capped at gtsc.max_lease.
    for (int i = 0; i < 6; ++i) {
        l2->receiveRequest(busRd(0x1000, 1, warp_ts), now);
        advance();
        warp_ts = sent.back().rts + 1;
    }
    EXPECT_LE(sent.back().rts - (warp_ts - 1),
              80u + 1u); // span <= max lease

    // A store resets the prediction.
    l2->receiveRequest(busWr(0x1000, warp_ts, 9), now);
    advance();
    Ts store_rts = sent.back().rts;
    Ts store_wts = sent.back().wts;
    EXPECT_EQ(store_rts - store_wts, 10u)
        << "store lease back to the base value";
}

TEST_F(GtscL2Fixture, FlushWritesBackAndPreservesMemTs)
{
    l2->receiveRequest(busWr(0x1000, 30, 42), now);
    advance();
    Ts rts_before = 0;
    for (const auto &p : sent) {
        if (p.type == MsgType::BusWrAck)
            rts_before = p.rts;
    }
    ASSERT_GT(rts_before, 0u);
    l2->flushAll(now);
    EXPECT_EQ(memory.readWord(0x1000), 42u);
    EXPECT_GE(l2->memTs(), rts_before);
}

} // namespace
