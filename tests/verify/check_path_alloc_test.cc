/**
 * Zero-alloc check path: once its scratch has grown, the explorer's
 * per-transition work besides capture/restore — hashing the
 * canonical state and running both invariant checks on a clean
 * state pair — makes no heap allocation.
 *
 * Global operator new/delete are replaced with counting versions for
 * this binary; each test warms up, then asserts the counter does not
 * move across repeated calls.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "verify/invariants.hh"
#include "verify/model.hh"
#include "verify/state.hh"

using namespace gtsc;
using namespace gtsc::verify;

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

constexpr int kRepeats = 100;

/**
 * A busy settled RC state reached through the real FSMs: SM0 has a
 * store in flight and a load waiting behind it, SM1's load was
 * delivered, so requests and a response are held, a pending store is
 * tracked and MSHR entries have waiters.
 */
struct BusyPair
{
    sim::Config cfg;
    std::unique_ptr<ModelSim> model;
    WorldState before;
    WorldState after;

    BusyPair()
    {
        cfg.set("verify.consistency", "rc");
        model = std::make_unique<ModelSim>(cfg);
        WorldState w = model->init().state;
        const Action path[] = {
            {Action::Kind::IssueStore, 0, 0},
            {Action::Kind::IssueLoad, 0, 1},
            {Action::Kind::IssueLoad, 1, 1},
            {Action::Kind::DeliverReq, 1, 0},
        };
        for (const Action &a : path)
        {
            auto out = model->step(w, a);
            EXPECT_TRUE(out.violations.empty()) << a.describe();
            before = std::move(w);
            w = std::move(out.state);
        }
        after = std::move(w);
    }
};

} // namespace

TEST(VerifyCheckPathAlloc, CanonicalHashMakesNoAllocation)
{
    BusyPair s;
    const WorldState &w = s.after;
    ASSERT_FALSE(w.reqs.empty());
    ASSERT_FALSE(w.resps.empty());
    ASSERT_FALSE(w.l1[0].pendingStores.empty());
    bool waiters = false;
    for (const auto &l1 : w.l1)
        for (const auto &m : l1.mshr)
            waiters |= !m.waiters.empty();
    ASSERT_TRUE(waiters);

    CanonicalScratch scratch;
    const Hash128 expect = canonicalHash(w, scratch);
    const std::uint64_t start = g_allocs.load();
    bool same = true;
    for (int i = 0; i < kRepeats; ++i)
        same &= canonicalHash(w, scratch) == expect;
    const std::uint64_t allocs = g_allocs.load() - start;
    EXPECT_TRUE(same);
    EXPECT_EQ(allocs, 0u);
}

TEST(VerifyCheckPathAlloc, CleanInvariantChecksMakeNoAllocation)
{
    BusyPair s;
    const InvariantParams params = s.model->invariantParams();
    ASSERT_TRUE(checkStateInvariants(s.after, params).empty());
    ASSERT_TRUE(checkTransitionInvariants(s.before, s.after).empty());

    const std::uint64_t start = g_allocs.load();
    bool clean = true;
    for (int i = 0; i < kRepeats; ++i)
    {
        clean &= checkStateInvariants(s.after, params).empty();
        clean &= checkTransitionInvariants(s.before, s.after).empty();
    }
    const std::uint64_t allocs = g_allocs.load() - start;
    EXPECT_TRUE(clean);
    EXPECT_EQ(allocs, 0u);
}
