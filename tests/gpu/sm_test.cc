/**
 * SM timing-model tests against a scripted mock L1: SC blocks every
 * memory instruction until globally performed; RC lets stores
 * fire-and-forget and makes fences wait for acks and the GWCT;
 * spin-loads retry with backoff; stall cycles are classified; a
 * retry the L1's reject generation dooms is charged without asking
 * the L1, and the SM parks on it.
 */

#include "gpu/sm.hh"

#include <gtest/gtest.h>

#include <deque>

using namespace gtsc;
using gpu::Consistency;
using gpu::GpuParams;
using gpu::Sm;
using gpu::StoreValueSource;
using gpu::WarpInstr;
using mem::Access;
using mem::AccessResult;

namespace
{

/** Mock L1: records accesses; completion is driven by the test. */
class MockL1 : public mem::L1Controller
{
  public:
    /** Something freed the L1 (as a response would). */
    void bump() { moveGeneration(); }

    bool
    access(const Access &acc, Cycle now) override
    {
        (void)now;
        ++accessCalls;
        ++tags;
        if (rejectAll || (rejectLine != 0 && acc.lineAddr == rejectLine))
            return reject(&tags, &rejects);
        if (acc.isStore)
            pendingStores.push_back(acc);
        else
            pendingLoads.push_back(acc);
        moveGeneration();
        return true;
    }

    void receiveResponse(mem::Packet &&, Cycle) override {}
    void tick(Cycle) override {}
    void flush(Cycle) override {}
    bool
    quiescent() const override
    {
        return pendingLoads.empty() && pendingStores.empty();
    }

    void
    completeLoad(std::uint32_t word0 = 0)
    {
        Access a = pendingLoads.front();
        pendingLoads.pop_front();
        AccessResult r;
        r.data.setWord(mem::wordInLine(0), word0);
        // word index 0 covers loadScalar at line offset 0
        r.data.setWord(0, word0);
        loadDone_(a, r);
    }

    void
    completeStore(Cycle gwct = 0)
    {
        Access a = pendingStores.front();
        pendingStores.pop_front();
        storeDone_(a, gwct);
    }

    std::deque<Access> pendingLoads;
    std::deque<Access> pendingStores;
    bool rejectAll = false;
    /** Reject only accesses to this line (0: none). */
    Addr rejectLine = 0;
    unsigned accessCalls = 0;
    std::uint64_t tags = 0;
    std::uint64_t rejects = 0;
};

class SmFixture : public ::testing::Test
{
  protected:
    void
    make(Consistency cons, std::vector<WarpInstr> warp0_instrs,
         unsigned warps = 2)
    {
        std::vector<std::vector<WarpInstr>> programs{
            std::move(warp0_instrs)};
        for (unsigned w = 1; w < warps; ++w)
            programs.push_back({WarpInstr::exit()});
        makeWarps(cons, std::move(programs));
    }

    /** One program per warp. */
    void
    makeWarps(Consistency cons,
              std::vector<std::vector<WarpInstr>> warp_instrs)
    {
        cfg.setInt("gpu.num_sms", 1);
        cfg.setInt("gpu.warps_per_sm",
                   static_cast<int>(warp_instrs.size()));
        cfg.set("gpu.consistency",
                cons == Consistency::SC ? "sc" : "rc");
        params = GpuParams::fromConfig(cfg);
        sm = std::make_unique<Sm>(0, params, cfg, stats, l1, values);

        std::vector<std::unique_ptr<gpu::WarpProgram>> programs;
        for (auto &instrs : warp_instrs) {
            programs.push_back(
                std::make_unique<gpu::TraceProgram>(std::move(instrs)));
        }
        sm->launchKernel(std::move(programs));
    }

    void
    tick(unsigned n = 1)
    {
        for (unsigned i = 0; i < n; ++i)
            sm->tick(++now);
    }

    sim::Config cfg;
    sim::StatSet stats;
    MockL1 l1;
    StoreValueSource values;
    GpuParams params;
    std::unique_ptr<Sm> sm;
    Cycle now = 0;
};

TEST_F(SmFixture, LoadBlocksWarpUntilData)
{
    make(Consistency::RC,
         {WarpInstr::loadScalar(0x100), WarpInstr::compute(1),
          WarpInstr::exit()});
    tick(3);
    ASSERT_EQ(l1.pendingLoads.size(), 1u);
    EXPECT_FALSE(sm->allWarpsDone());
    std::uint64_t retired_before = stats.get("sm.instructions");
    tick(5);
    EXPECT_EQ(stats.get("sm.instructions"), retired_before)
        << "warp blocked on the load";
    l1.completeLoad();
    tick(5);
    EXPECT_TRUE(sm->allWarpsDone());
}

TEST_F(SmFixture, RcStoreDoesNotBlockWarp)
{
    make(Consistency::RC,
         {WarpInstr::storeScalar(0x100, 1),
          WarpInstr::storeScalar(0x180, 2), WarpInstr::exit()});
    tick(5);
    EXPECT_EQ(l1.pendingStores.size(), 2u)
        << "both stores issued without waiting for acks";
    EXPECT_TRUE(sm->allWarpsDone());
    EXPECT_FALSE(sm->quiescent()) << "acks still outstanding";
    l1.completeStore();
    l1.completeStore();
    EXPECT_TRUE(sm->quiescent());
}

TEST_F(SmFixture, ScStoreBlocksUntilAck)
{
    make(Consistency::SC,
         {WarpInstr::storeScalar(0x100, 1),
          WarpInstr::storeScalar(0x180, 2), WarpInstr::exit()});
    tick(5);
    EXPECT_EQ(l1.pendingStores.size(), 1u)
        << "SC: one outstanding memory request per warp";
    l1.completeStore();
    tick(5);
    EXPECT_EQ(l1.pendingStores.size(), 1u);
    l1.completeStore();
    tick(5);
    EXPECT_TRUE(sm->allWarpsDone());
}

TEST_F(SmFixture, RcFenceWaitsForStoreAcks)
{
    make(Consistency::RC,
         {WarpInstr::storeScalar(0x100, 1), WarpInstr::fence(),
          WarpInstr::compute(1), WarpInstr::exit()});
    tick(5);
    std::uint64_t before = stats.get("sm.instructions");
    tick(10);
    EXPECT_EQ(stats.get("sm.instructions"), before)
        << "fence blocked on the outstanding store";
    l1.completeStore();
    tick(5);
    EXPECT_TRUE(sm->allWarpsDone());
    EXPECT_GT(stats.get("sm.fence_stall_warp_cycles"), 0u);
}

TEST_F(SmFixture, FenceWaitsForGwct)
{
    // TC-Weak: the ack's GWCT pushes the fence release into the
    // future even though the ack already arrived.
    make(Consistency::RC,
         {WarpInstr::storeScalar(0x100, 1), WarpInstr::fence(),
          WarpInstr::exit()});
    tick(3);
    l1.completeStore(/*gwct=*/60);
    tick(10); // now ~13 < 60
    EXPECT_FALSE(sm->allWarpsDone()) << "GWCT not reached";
    tick(60);
    EXPECT_TRUE(sm->allWarpsDone());
}

TEST_F(SmFixture, StructuralRejectRetries)
{
    make(Consistency::RC,
         {WarpInstr::loadScalar(0x100), WarpInstr::exit()});
    l1.rejectAll = true;
    tick(5);
    EXPECT_TRUE(l1.pendingLoads.empty());
    l1.rejectAll = false;
    l1.bump();
    tick(3);
    EXPECT_EQ(l1.pendingLoads.size(), 1u) << "access retried";
    l1.completeLoad();
    tick(3);
    EXPECT_TRUE(sm->allWarpsDone());
}

TEST_F(SmFixture, SpinLoadRetriesUntilValue)
{
    make(Consistency::RC,
         {WarpInstr::spinUntil(0x100, 5, 100), WarpInstr::exit()});
    tick(3);
    ASSERT_EQ(l1.pendingLoads.size(), 1u);
    l1.completeLoad(0); // not yet
    tick(30);           // backoff elapses, retry issued
    ASSERT_EQ(l1.pendingLoads.size(), 1u) << "spin retried";
    EXPECT_GT(stats.get("sm.spin_retries"), 0u);
    l1.completeLoad(5); // satisfied
    tick(5);
    EXPECT_TRUE(sm->allWarpsDone());
    EXPECT_EQ(stats.get("sm.spin_giveups"), 0u);
}

TEST_F(SmFixture, SpinLoadGivesUpAfterMaxIters)
{
    make(Consistency::RC,
         {WarpInstr::spinUntil(0x100, 5, 3), WarpInstr::exit()});
    for (int i = 0; i < 3; ++i) {
        tick(30);
        if (!l1.pendingLoads.empty())
            l1.completeLoad(0);
    }
    tick(30);
    EXPECT_TRUE(sm->allWarpsDone());
    EXPECT_EQ(stats.get("sm.spin_giveups"), 1u);
}

TEST_F(SmFixture, ObserveDeliversLoadedValue)
{
    // A program that stores what it loaded (litmus recording).
    class Recorder : public gpu::WarpProgram
    {
      public:
        WarpInstr
        next() override
        {
            switch (step_++) {
              case 0:
                return WarpInstr::loadScalar(0x100);
              case 1:
                return WarpInstr::storeScalar(0x200, observed_);
              default:
                return WarpInstr::exit();
            }
        }
        void observe(std::uint32_t v) override { observed_ = v; }

      private:
        unsigned step_ = 0;
        std::uint32_t observed_ = 0;
    };

    make(Consistency::RC, {WarpInstr::exit()});
    std::vector<std::unique_ptr<gpu::WarpProgram>> programs;
    programs.push_back(std::make_unique<Recorder>());
    programs.push_back(std::make_unique<gpu::TraceProgram>(
        std::vector<WarpInstr>{WarpInstr::exit()}));
    sm->launchKernel(std::move(programs));
    tick(3);
    l1.completeLoad(1234);
    tick(3);
    ASSERT_EQ(l1.pendingStores.size(), 1u);
    EXPECT_EQ(l1.pendingStores.front().storeData.word(0), 1234u);
}

TEST_F(SmFixture, StallClassification)
{
    make(Consistency::RC,
         {WarpInstr::loadScalar(0x100), WarpInstr::compute(20),
          WarpInstr::exit()});
    tick(1); // issue the load -> active
    EXPECT_EQ(stats.get("sm.active_cycles"), 1u);
    tick(10); // blocked on memory, nothing else to run
    EXPECT_GE(stats.get("sm.mem_stall_cycles"), 9u);
    l1.completeLoad();
    tick(2); // compute issues
    std::uint64_t mem_stalls = stats.get("sm.mem_stall_cycles");
    tick(10); // waiting on compute: compute stall, not memory
    EXPECT_EQ(stats.get("sm.mem_stall_cycles"), mem_stalls);
    EXPECT_GT(stats.get("sm.compute_stall_cycles"), 0u);
    tick(20);
    EXPECT_TRUE(sm->allWarpsDone());
    EXPECT_GT(stats.get("sm.idle_cycles"), 0u);
}

TEST_F(SmFixture, MultiLineLoadWaitsForAllParts)
{
    // Stride 8 over 32 lanes spans two lines -> two accesses.
    make(Consistency::RC,
         {WarpInstr::loadStrided(0x1000, 32, 8), WarpInstr::exit()});
    tick(3);
    ASSERT_EQ(l1.pendingLoads.size(), 2u);
    l1.completeLoad();
    tick(3);
    EXPECT_FALSE(sm->allWarpsDone()) << "one part still outstanding";
    l1.completeLoad();
    tick(3);
    EXPECT_TRUE(sm->allWarpsDone());
}

} // namespace

TEST_F(SmFixture, HorizonReadyWarpIsNextCycle)
{
    make(Consistency::RC, {WarpInstr::compute(5), WarpInstr::exit()}, 1);
    EXPECT_EQ(sm->nextWorkCycle(now), now + 1);
}

TEST_F(SmFixture, HorizonWaitComputeWakesAtReadyAtExactly)
{
    make(Consistency::RC, {WarpInstr::compute(10), WarpInstr::exit()},
         1);
    tick(); // issue at cycle 1: readyAt = 11, warp -> WaitCompute
    Cycle h = sm->nextWorkCycle(now);
    EXPECT_EQ(h, 11u);
    // Ticking strictly before the horizon neither issues nor
    // retires anything.
    std::uint64_t instrs = stats.get("sm.instructions");
    while (now + 1 < h) {
        tick();
        EXPECT_EQ(stats.get("sm.instructions"), instrs);
        EXPECT_EQ(sm->nextWorkCycle(now), h);
    }
    tick(2); // wake at 11, exit at 12
    EXPECT_TRUE(sm->allWarpsDone());
}

TEST_F(SmFixture, HorizonMemBlockedWarpIsEventDriven)
{
    make(Consistency::RC, {WarpInstr::loadScalar(0x100),
                           WarpInstr::exit()},
         1);
    tick(); // load accepted by the L1; warp blocks on the response
    ASSERT_EQ(l1.pendingLoads.size(), 1u);
    // Only the L1 completion callback can wake it.
    EXPECT_EQ(sm->nextWorkCycle(now), kCycleNever);
    l1.completeLoad();
    EXPECT_EQ(sm->nextWorkCycle(now), now + 1);
}

TEST_F(SmFixture, FastForwardStatsMatchesPerCycleClassification)
{
    make(Consistency::RC, {WarpInstr::compute(50), WarpInstr::exit()},
         1);
    tick(); // warp -> WaitCompute until cycle 51
    std::uint64_t before = stats.get("sm.compute_stall_cycles");
    std::uint64_t idle_before = stats.get("sm.idle_cycles");
    sm->fastForwardStats(7);
    EXPECT_EQ(stats.get("sm.compute_stall_cycles"), before + 7);
    EXPECT_EQ(stats.get("sm.idle_cycles"), idle_before);
}

TEST_F(SmFixture, DoomedRetryIsChargedWithoutAskingTheL1)
{
    make(Consistency::RC, {WarpInstr::loadScalar(0x100),
                           WarpInstr::exit()},
         1);
    l1.rejectAll = true;
    tick(); // the first submit asks the L1 and is rejected
    ASSERT_EQ(l1.accessCalls, 1u);
    ASSERT_EQ(l1.rejects, 1u);
    tick(5); // same generation: each retry repeats the reject
    EXPECT_EQ(l1.accessCalls, 1u) << "doomed retries never call access()";
    EXPECT_EQ(l1.tags, 6u);
    EXPECT_EQ(l1.rejects, 6u) << "charged once per cycle";
    EXPECT_EQ(stats.get("sm.active_cycles"), 6u);
    EXPECT_EQ(sm->issueSlotsUsed(), 6u);

    // Once the generation moves the retry asks the L1 again.
    l1.rejectAll = false;
    l1.bump();
    tick();
    EXPECT_EQ(l1.accessCalls, 2u);
    EXPECT_EQ(l1.pendingLoads.size(), 1u);
    EXPECT_EQ(l1.rejects, 6u);
}

TEST_F(SmFixture, GtoParksOnDoomedRetryUntilComputeWake)
{
    // Warp 0 computes until cycle 31; warp 1's load is rejected and,
    // as GTO's greedy warp, takes every slot after that.
    makeWarps(Consistency::RC,
              {{WarpInstr::compute(30), WarpInstr::exit()},
               {WarpInstr::loadScalar(0x100), WarpInstr::exit()}});
    l1.rejectAll = true;
    tick(3);
    ASSERT_EQ(l1.accessCalls, 1u);
    EXPECT_EQ(sm->nextWorkCycle(now), 31u)
        << "parked: only the compute wake remains";
}

TEST_F(SmFixture, GtoParkedWithNoOtherWakeWaitsForTheL1)
{
    make(Consistency::RC, {WarpInstr::loadScalar(0x100),
                           WarpInstr::exit()},
         1);
    l1.rejectAll = true;
    tick(2);
    EXPECT_EQ(sm->nextWorkCycle(now), kCycleNever);
}

TEST_F(SmFixture, OldestParksOnLowestDoomedRetry)
{
    cfg.set("gpu.scheduler", "oldest");
    make(Consistency::RC, {WarpInstr::loadScalar(0x100),
                           WarpInstr::exit()});
    l1.rejectAll = true;
    tick(2);
    EXPECT_EQ(sm->nextWorkCycle(now), kCycleNever);
}

TEST_F(SmFixture, RoundRobinNeverParks)
{
    cfg.set("gpu.scheduler", "rr");
    make(Consistency::RC, {WarpInstr::loadScalar(0x100),
                           WarpInstr::exit()},
         1);
    l1.rejectAll = true;
    for (int i = 0; i < 4; ++i) {
        tick();
        EXPECT_EQ(sm->nextWorkCycle(now), now + 1);
    }
    EXPECT_EQ(l1.accessCalls, 1u) << "doomed retries still skip access()";
}

TEST_F(SmFixture, GenerationMoveReArmsParkedSmAtCurrentCycle)
{
    make(Consistency::RC, {WarpInstr::loadScalar(0x100),
                           WarpInstr::exit()},
         1);
    std::vector<Cycle> wakes;
    sm->setWakeHook([&wakes](Cycle at) { wakes.push_back(at); });
    sm->setSchedNow(&now);
    l1.rejectAll = true;
    tick(); // rejected at cycle 1; parked
    ASSERT_EQ(sm->nextWorkCycle(now), kCycleNever);

    // The loop runs on without ticking the parked SM; at cycle 6 a
    // response frees the L1.
    now = 6;
    l1.rejectAll = false;
    l1.bump();
    ASSERT_EQ(wakes.size(), 1u);
    EXPECT_EQ(wakes[0], 6u);
    // Cycles 2-5 were charged as doomed retries before the move.
    EXPECT_EQ(stats.get("sm.active_cycles"), 5u);
    EXPECT_EQ(l1.rejects, 5u);
    EXPECT_EQ(sm->nextWorkCycle(now - 1), now);

    sm->tick(now);
    EXPECT_EQ(l1.accessCalls, 2u);
    EXPECT_EQ(l1.pendingLoads.size(), 1u);

    // Moves while not parked wake nothing.
    l1.bump();
    EXPECT_EQ(wakes.size(), 1u);
}

TEST_F(SmFixture, CallbackLeavingRetryDoomedReArmsAtHorizon)
{
    l1.rejectLine = 0x100;
    // Warp 0's load is accepted; warp 1's is rejected and parks the
    // SM. Warp 0's completion leaves warp 1 doomed and pinned.
    makeWarps(Consistency::RC,
              {{WarpInstr::loadScalar(0x200), WarpInstr::compute(40),
                WarpInstr::exit()},
               {WarpInstr::loadScalar(0x100), WarpInstr::exit()}});
    std::vector<Cycle> wakes;
    sm->setWakeHook([&wakes](Cycle at) { wakes.push_back(at); });
    sm->setSchedNow(&now);
    tick(3);
    ASSERT_EQ(l1.pendingLoads.size(), 1u);
    ASSERT_EQ(sm->nextWorkCycle(now), kCycleNever);
    l1.completeLoad(); // warp 0 is Ready, but GTO stays on warp 1
    ASSERT_EQ(wakes.size(), 1u);
    EXPECT_EQ(wakes[0], kCycleNever) << "no tick for a doomed retry";
}

TEST_F(SmFixture, FastForwardOverParkedSpanMatchesTicking)
{
    l1.rejectLine = 0x100;
    // Warp 0 blocks on a fence behind its store; warp 1 parks the SM
    // on its rejected load.
    makeWarps(Consistency::RC,
              {{WarpInstr::storeScalar(0x200, 1), WarpInstr::fence(),
                WarpInstr::exit()},
               {WarpInstr::loadScalar(0x100), WarpInstr::exit()}});
    tick(4);
    ASSERT_EQ(sm->nextWorkCycle(now), kCycleNever);
    const char *names[] = {"sm.active_cycles", "sm.idle_cycles",
                           "sm.mem_stall_cycles",
                           "sm.compute_stall_cycles",
                           "sm.fence_stall_warp_cycles"};
    auto snapshot = [&]() {
        std::vector<std::uint64_t> v;
        for (const char *n : names)
            v.push_back(stats.get(n));
        v.push_back(sm->issueSlotsUsed());
        v.push_back(l1.tags);
        v.push_back(l1.rejects);
        return v;
    };
    auto delta = [](const std::vector<std::uint64_t> &a,
                    const std::vector<std::uint64_t> &b) {
        std::vector<std::uint64_t> d;
        for (std::size_t i = 0; i < a.size(); ++i)
            d.push_back(b[i] - a[i]);
        return d;
    };
    unsigned calls = l1.accessCalls;
    auto s0 = snapshot();
    tick(7);
    auto s1 = snapshot();
    sm->fastForwardStats(7);
    auto s2 = snapshot();
    EXPECT_EQ(delta(s0, s1), delta(s1, s2));
    EXPECT_EQ(delta(s0, s1)[4], 7u) << "one fence-blocked warp";
    EXPECT_EQ(delta(s0, s1)[7], 7u) << "one reject per cycle";
    EXPECT_EQ(l1.accessCalls, calls);
}
