#include "noc/crossbar.hh"

#include <gtest/gtest.h>

#include <map>
#include <vector>

using namespace gtsc;

namespace
{

struct XbarFixture : public ::testing::Test
{
    sim::Config cfg;
    sim::StatSet stats;

    mem::Packet
    packet(std::uint32_t size, std::uint64_t id = 0)
    {
        mem::Packet p;
        p.type = mem::MsgType::BusRd;
        p.sizeBytes = size;
        p.reqId = id;
        return p;
    }
};

} // namespace

TEST_F(XbarFixture, DeliversAfterHopLatency)
{
    noc::Crossbar x(2, 2, cfg, stats, "noc.t");
    std::vector<std::uint64_t> got;
    Cycle delivered_at = 0;
    x.setDeliver([&](unsigned dst, mem::Packet &&p) {
        EXPECT_EQ(dst, 1u);
        got.push_back(p.reqId);
    });
    x.inject(0, 1, packet(8, 42), 0);
    // 8B @ 32B/cyc = 1 tx cycle + 12 hop latency = arrive at 13.
    for (Cycle c = 1; c <= 20 && got.empty(); ++c) {
        x.tick(c);
        if (!got.empty())
            delivered_at = c;
    }
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 42u);
    EXPECT_GE(delivered_at, 13u);
    EXPECT_TRUE(x.quiescent());
}

TEST_F(XbarFixture, AccountsBytesPerType)
{
    noc::Crossbar x(1, 1, cfg, stats, "noc.t");
    x.setDeliver([](unsigned, mem::Packet &&) {});
    x.inject(0, 0, packet(140), 0);
    // Counters are live from inject on.
    EXPECT_EQ(stats.get("noc.t.bytes"), 140u);
    EXPECT_EQ(stats.get("noc.t.packets.BusRd"), 1u);
    x.inject(0, 0, packet(12), 0);
    EXPECT_EQ(stats.get("noc.t.bytes"), 152u);
    EXPECT_EQ(stats.get("noc.t.packets"), 2u);
    EXPECT_EQ(stats.get("noc.t.bytes.BusRd"), 152u);
    EXPECT_EQ(stats.get("noc.t.packets.BusRd"), 2u);
}

TEST_F(XbarFixture, SourceLinkSerializesLargePackets)
{
    noc::Crossbar x(1, 2, cfg, stats, "noc.t");
    // Two 128B packets from one source to different destinations:
    // 4 tx cycles each, so the second cannot arrive before 8 + hop.
    std::map<std::uint64_t, Cycle> arrival;
    Cycle cur = 0;
    x.setDeliver([&](unsigned, mem::Packet &&p) {
        arrival[p.reqId] = cur;
    });
    x.inject(0, 0, packet(128, 1), 0);
    x.inject(0, 1, packet(128, 2), 0);
    for (cur = 1; cur <= 100 && arrival.size() < 2; ++cur)
        x.tick(cur);
    ASSERT_EQ(arrival.size(), 2u);
    // First: 4 (tx) + 12 (hop) = 16. Second serializes: 8 + 12 = 20.
    EXPECT_GE(arrival[1], 16u);
    EXPECT_GE(arrival[2], 20u);
}

TEST_F(XbarFixture, DestPortSerializesEjection)
{
    cfg.setInt("noc.hop_latency", 1);
    noc::Crossbar x(4, 1, cfg, stats, "noc.t");
    std::vector<Cycle> deliveries;
    Cycle cur = 0;
    x.setDeliver([&](unsigned, mem::Packet &&) {
        deliveries.push_back(cur);
    });
    // Four 128B packets from different sources to one destination:
    // ejection runs one packet per 4 cycles.
    for (unsigned s = 0; s < 4; ++s)
        x.inject(s, 0, packet(128, s), 0);
    for (cur = 1; cur <= 100 && deliveries.size() < 4; ++cur)
        x.tick(cur);
    ASSERT_EQ(deliveries.size(), 4u);
    for (std::size_t i = 1; i < deliveries.size(); ++i)
        EXPECT_GE(deliveries[i] - deliveries[i - 1], 4u);
}

TEST_F(XbarFixture, LatencyDistributionRecorded)
{
    noc::Crossbar x(1, 1, cfg, stats, "noc.t");
    x.setDeliver([](unsigned, mem::Packet &&) {});
    x.inject(0, 0, packet(32), 0);
    for (Cycle c = 1; c < 40; ++c)
        x.tick(c);
    EXPECT_EQ(stats.getDistribution("noc.t.latency").count(), 1u);
    EXPECT_GE(stats.getDistribution("noc.t.latency").mean(), 13.0);
}

TEST_F(XbarFixture, RejectsZeroSizePackets)
{
    noc::Crossbar x(1, 1, cfg, stats, "noc.t");
    x.setDeliver([](unsigned, mem::Packet &&) {});
    EXPECT_THROW(x.inject(0, 0, packet(0), 0), std::runtime_error);
    EXPECT_THROW(x.inject(1, 0, packet(8), 0), std::runtime_error);
}

TEST_F(XbarFixture, HorizonNeverWhenEmpty)
{
    noc::Crossbar x(2, 2, cfg, stats, "noc.t");
    EXPECT_EQ(x.nextWorkCycle(7), kCycleNever);
}

TEST_F(XbarFixture, HorizonIsConservativeAndExact)
{
    noc::Crossbar x(2, 2, cfg, stats, "noc.t");
    std::vector<std::uint64_t> got;
    x.setDeliver([&](unsigned, mem::Packet &&p) {
        got.push_back(p.reqId);
    });
    x.inject(0, 1, packet(8, 42), 0);
    Cycle h = x.nextWorkCycle(0);
    ASSERT_NE(h, kCycleNever);
    // Ticking strictly before the horizon is a no-op...
    for (Cycle c = 1; c < h; ++c) {
        x.tick(c);
        EXPECT_TRUE(got.empty()) << "delivered before horizon at " << c;
    }
    // ...and the horizon itself is not late: the packet arrives there.
    x.tick(h);
    EXPECT_EQ(got.size(), 1u);
    EXPECT_EQ(x.nextWorkCycle(h), kCycleNever);
}
