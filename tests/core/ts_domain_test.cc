#include "core/ts_domain.hh"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace gtsc;
using core::TsDomain;

TEST(TsDomain, DefaultsTo16Bits)
{
    sim::Config cfg;
    sim::StatSet stats;
    TsDomain d(cfg, stats);
    EXPECT_EQ(d.tsMax(), 65535u);
    EXPECT_EQ(d.tsBytes(), 2u);
    EXPECT_EQ(d.lease(), 10u);
    EXPECT_EQ(d.epoch(), 0u);
}

TEST(TsDomain, ResetAdvancesEpochAndNotifiesListeners)
{
    sim::Config cfg;
    sim::StatSet stats;
    TsDomain d(cfg, stats);
    int calls = 0;
    d.addResetListener([&] { ++calls; });
    d.addResetListener([&] { ++calls; });
    d.triggerReset();
    EXPECT_EQ(d.epoch(), 1u);
    EXPECT_EQ(calls, 2);
    d.triggerReset();
    EXPECT_EQ(d.epoch(), 2u);
    EXPECT_EQ(calls, 4);
    EXPECT_EQ(stats.get("gtsc.ts_resets"), 2u);
}

TEST(TsDomain, ConfigurableWidthAndLease)
{
    sim::Config cfg;
    cfg.setInt("gtsc.ts_bits", 8);
    cfg.setInt("gtsc.lease", 12);
    sim::StatSet stats;
    TsDomain d(cfg, stats);
    EXPECT_EQ(d.tsMax(), 255u);
    EXPECT_EQ(d.tsBytes(), 1u);
    EXPECT_EQ(d.lease(), 12u);
}

TEST(TsDomain, RejectsBadConfig)
{
    sim::StatSet stats;
    {
        sim::Config cfg;
        cfg.setInt("gtsc.ts_bits", 2);
        EXPECT_THROW(TsDomain(cfg, stats), std::runtime_error);
    }
    {
        sim::Config cfg;
        cfg.setInt("gtsc.lease", 0);
        EXPECT_THROW(TsDomain(cfg, stats), std::runtime_error);
    }
    {
        // Lease too large for the timestamp width.
        sim::Config cfg;
        cfg.setInt("gtsc.ts_bits", 8);
        cfg.setInt("gtsc.lease", 200);
        EXPECT_THROW(TsDomain(cfg, stats), std::runtime_error);
    }
}
