/**
 * FSM-level tests of the Temporal Coherence baseline: physical-time
 * leases and self-invalidation at L1; TC-Strong write stalls,
 * TC-Weak GWCT, and inclusive delayed eviction at L2.
 */

#include <gtest/gtest.h>

#include "protocols/tc_l1.hh"
#include "protocols/tc_l2.hh"

using namespace gtsc;
using mem::Access;
using mem::AccessResult;
using mem::MsgType;
using mem::Packet;
using protocols::TcL1;
using protocols::TcL2;

namespace
{

class TcL1Fixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg.setInt("l1.size_bytes", 2 * 1024);
        cfg.setInt("l1.assoc", 2);
        l1 = std::make_unique<TcL1>(0, cfg, stats, events, nullptr);
        l1->setSend([this](Packet &&p) { sent.push_back(p); });
        l1->setLoadDone([this](const Access &a, const AccessResult &r) {
            loadsDone.emplace_back(a, r);
        });
        l1->setStoreDone([this](const Access &a, Cycle gwct) {
            storesDone.emplace_back(a, gwct);
        });
    }

    Access
    load(Addr line, WarpId warp = 0)
    {
        Access a;
        a.lineAddr = line;
        a.wordMask = 1;
        a.warp = warp;
        a.id = nextId++;
        return a;
    }

    Access
    store(Addr line, std::uint32_t value)
    {
        Access a = load(line);
        a.isStore = true;
        a.storeData.setWord(0, value);
        return a;
    }

    Packet
    fill(Addr line, Cycle lease_end, Cycle grant)
    {
        Packet p;
        p.type = MsgType::BusFill;
        p.lineAddr = line;
        p.leaseEnd = lease_end;
        p.gwct = grant;
        return p;
    }

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
    std::unique_ptr<TcL1> l1;
    std::vector<Packet> sent;
    std::vector<std::pair<Access, AccessResult>> loadsDone;
    std::vector<std::pair<Access, Cycle>> storesDone;
    std::uint64_t nextId = 1;
    Cycle now = 0;
};

TEST_F(TcL1Fixture, HitOnlyWithinLease)
{
    l1->access(load(0x1000), now);
    l1->receiveResponse(fill(0x1000, now + 50, now), now);
    advance(5);
    sent.clear();
    EXPECT_TRUE(l1->access(load(0x1000), now));
    EXPECT_TRUE(sent.empty()) << "within lease: hit";
    EXPECT_EQ(stats.get("l1.hits"), 1u);

    advance(60); // lease expires -> self-invalidated
    l1->access(load(0x1000), now);
    ASSERT_EQ(sent.size(), 1u) << "expired: coherence miss";
    EXPECT_EQ(sent[0].type, MsgType::BusRd);
    EXPECT_EQ(stats.get("l1.miss_expired"), 1u);
}

TEST_F(TcL1Fixture, StoreInvalidatesLocalCopy)
{
    l1->access(load(0x1000), now);
    l1->receiveResponse(fill(0x1000, now + 500, now), now);
    advance(2);
    sent.clear();
    l1->access(store(0x1000, 9), now);
    ASSERT_EQ(sent.size(), 1u);
    EXPECT_EQ(sent[0].type, MsgType::BusWr);

    // Even though the lease is unexpired, the local copy is gone.
    l1->access(load(0x1000), now);
    EXPECT_EQ(sent.size(), 2u);
    EXPECT_EQ(sent[1].type, MsgType::BusRd);
    EXPECT_EQ(stats.get("l1.miss_cold"), 2u);
}

TEST_F(TcL1Fixture, AckDeliversGwct)
{
    l1->access(store(0x1000, 9), now);
    Packet ack;
    ack.type = MsgType::BusWrAck;
    ack.lineAddr = 0x1000;
    ack.reqId = sent[0].reqId;
    ack.gwct = 777;
    l1->receiveResponse(std::move(ack), now);
    ASSERT_EQ(storesDone.size(), 1u);
    EXPECT_EQ(storesDone[0].second, 777u);
}

TEST_F(TcL1Fixture, EveryAcceptingEntryPointMovesRejectGeneration)
{
    cfg.setInt("l1.mshr_entries", 1);
    SetUp();
    std::uint64_t gen = l1->rejectGeneration();
    ASSERT_NE(gen, 0u) << "TC keeps a reject generation";
    auto moved = [&]() {
        bool m = l1->rejectGeneration() != gen;
        gen = l1->rejectGeneration();
        return m;
    };

    EXPECT_TRUE(l1->access(load(0x1000), now));
    EXPECT_TRUE(moved()) << "miss";
    EXPECT_TRUE(l1->access(load(0x1000, 1), now));
    EXPECT_TRUE(moved()) << "merge";
    EXPECT_TRUE(l1->access(store(0x3000, 5), now));
    EXPECT_TRUE(moved()) << "store";

    // A reject leaves it alone, and time alone cannot turn it into
    // an accept: a rejected load found no line or an expired one.
    EXPECT_FALSE(l1->access(load(0x2000), now));
    EXPECT_FALSE(moved());
    EXPECT_EQ(l1->lastReject().counters[0],
              &stats.counter("l1.tag_accesses"));
    EXPECT_EQ(l1->lastReject().counters[1],
              &stats.counter("l1.rejects_mshr_full"));
    advance(100);
    EXPECT_FALSE(l1->access(load(0x2000), now));
    EXPECT_EQ(stats.get("l1.rejects_mshr_full"), 2u);

    l1->receiveResponse(fill(0x1000, now + 50, now), now);
    EXPECT_TRUE(moved()) << "response";
    EXPECT_TRUE(l1->access(load(0x1000), now));
    EXPECT_TRUE(moved()) << "hit";
    Packet ack;
    ack.type = MsgType::BusWrAck;
    ack.lineAddr = 0x3000;
    ack.reqId = sent[1].reqId;
    l1->receiveResponse(std::move(ack), now);
    EXPECT_TRUE(moved()) << "ack";
    advance();
    ASSERT_TRUE(l1->quiescent());
    l1->flush(now);
    EXPECT_TRUE(moved()) << "flush";
}

class TcL2Fixture : public ::testing::Test
{
  protected:
    void
    init(bool strong)
    {
        cfg.setInt("l2.partition_bytes", 1024); // 8 lines
        cfg.setInt("l2.assoc", 2);
        cfg.setInt("l2.access_latency", 2);
        if (!cfg.has("tc.lease"))
            cfg.setInt("tc.lease", 50);
        dram = std::make_unique<mem::DramChannel>(cfg, stats, events,
                                                  memory, "dram");
        l2 = std::make_unique<TcL2>(0, cfg, stats, events, *dram,
                                    memory, strong, nullptr);
        l2->setSend([this](Packet &&p) { sent.push_back(p); });
    }

    Packet
    busRd(Addr line)
    {
        Packet p;
        p.type = MsgType::BusRd;
        p.lineAddr = line;
        p.reqId = nextId++;
        return p;
    }

    Packet
    busWr(Addr line, std::uint32_t value)
    {
        Packet p;
        p.type = MsgType::BusWr;
        p.lineAddr = line;
        p.wordMask = 1;
        p.data.setWord(0, value);
        p.reqId = nextId++;
        return p;
    }

    void
    advance(unsigned cycles)
    {
        for (unsigned i = 0; i < cycles; ++i) {
            ++now;
            events.runUntil(now);
            l2->tick(now);
            dram->tick(now);
        }
    }

    unsigned
    count(MsgType t) const
    {
        unsigned n = 0;
        for (const auto &p : sent)
            n += (p.type == t);
        return n;
    }

    sim::Config cfg;
    sim::StatSet stats;
    sim::EventQueue events;
    mem::MainMemory memory;
    std::unique_ptr<mem::DramChannel> dram;
    std::unique_ptr<TcL2> l2;
    std::vector<Packet> sent;
    std::uint64_t nextId = 1;
    Cycle now = 0;
};

TEST_F(TcL2Fixture, ReadGrantsLeaseRelativeToNow)
{
    init(false);
    l2->receiveRequest(busRd(0x1000), now);
    advance(200);
    ASSERT_EQ(count(MsgType::BusFill), 1u);
    const Packet &f = sent.back();
    EXPECT_GT(f.leaseEnd, f.gwct);
    EXPECT_EQ(f.leaseEnd - f.gwct, 50u) << "lease period";
}

TEST_F(TcL2Fixture, StrongStoreStallsUntilLeaseExpiry)
{
    init(true);
    l2->receiveRequest(busRd(0x1000), now);
    advance(200); // line resident, lease granted at ~now
    l2->receiveRequest(busRd(0x1000), now); // refresh the lease
    advance(5);
    sent.clear();
    l2->receiveRequest(busWr(0x1000, 9), now);
    advance(10);
    EXPECT_EQ(count(MsgType::BusWrAck), 0u) << "write stalled";
    EXPECT_GT(stats.get("l2.write_stall_cycles"), 0u);
    advance(60); // lease expires
    EXPECT_EQ(count(MsgType::BusWrAck), 1u);
}

TEST_F(TcL2Fixture, StrongReadsQueueBehindStalledStore)
{
    init(true);
    l2->receiveRequest(busRd(0x1000), now);
    advance(200);
    l2->receiveRequest(busRd(0x1000), now);
    advance(5);
    sent.clear();
    l2->receiveRequest(busWr(0x1000, 9), now);
    advance(2);
    l2->receiveRequest(busRd(0x1000), now);
    advance(10);
    EXPECT_EQ(count(MsgType::BusFill), 0u)
        << "read delayed behind the stalled write";
    advance(80);
    ASSERT_EQ(count(MsgType::BusFill), 1u);
    EXPECT_EQ(sent.back().data.word(0), 9u)
        << "read sees the store it queued behind";
}

TEST_F(TcL2Fixture, WeakStorePerformsImmediatelyWithGwct)
{
    init(false);
    l2->receiveRequest(busRd(0x1000), now);
    advance(200);
    l2->receiveRequest(busRd(0x1000), now); // lease to ~now+50
    advance(5);
    Cycle lease_end = 0;
    for (const auto &p : sent) {
        if (p.type == MsgType::BusFill)
            lease_end = p.leaseEnd;
    }
    sent.clear();
    l2->receiveRequest(busWr(0x1000, 9), now);
    advance(10);
    ASSERT_EQ(count(MsgType::BusWrAck), 1u) << "no write stall";
    EXPECT_EQ(sent.back().gwct, lease_end)
        << "GWCT = outstanding lease expiry";
    EXPECT_EQ(stats.get("l2.write_stall_cycles"), 0u);
}

TEST_F(TcL2Fixture, InclusiveDelayedEviction)
{
    cfg.setInt("tc.lease", 500); // leases outlive the DRAM fill
    init(false);
    // Fill set 0 (lines 0x000 and 0x200) with fresh leases.
    l2->receiveRequest(busRd(0x000), now);
    advance(200);
    l2->receiveRequest(busRd(0x200), now);
    advance(200);
    l2->receiveRequest(busRd(0x000), now); // refresh leases
    l2->receiveRequest(busRd(0x200), now);
    advance(5);
    sent.clear();
    // A third line maps to the same set; both victims stay leased
    // well past the DRAM fill (~110 cycles).
    l2->receiveRequest(busRd(0x400), now);
    advance(200);
    EXPECT_EQ(count(MsgType::BusFill), 0u)
        << "fill stalls: no expired victim (delayed eviction)";
    EXPECT_GT(stats.get("l2.evict_stall_cycles"), 0u);
    advance(600); // leases expire; insert proceeds
    EXPECT_EQ(count(MsgType::BusFill), 1u);
}

TEST_F(TcL2Fixture, WeakStoreToExpiredLineGwctIsNow)
{
    init(false);
    l2->receiveRequest(busRd(0x1000), now);
    advance(300); // lease long expired
    sent.clear();
    l2->receiveRequest(busWr(0x1000, 9), now);
    advance(10);
    ASSERT_EQ(count(MsgType::BusWrAck), 1u);
    EXPECT_LE(sent.back().gwct, now) << "no future visibility point";
}

} // namespace
