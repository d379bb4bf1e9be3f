/**
 * Zero-alloc transitions: once its storage has grown, the explorer's
 * per-transition work — restore, settle and capture into a reused
 * state, hashing the canonical state, a visited-set insert and both
 * invariant checks on a clean state pair — makes no heap allocation.
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
#include <string>
#include <utility>
#include <vector>

#include "verify/invariants.hh"
#include "verify/model.hh"
#include "verify/state.hh"

using namespace gtsc;
using namespace gtsc::verify;

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

} // namespace

[[gnu::noinline]] void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

[[gnu::noinline]] void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
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
        after = model->init().state;
        const Action path[] = {
            {Action::Kind::IssueStore, 0, 0},
            {Action::Kind::IssueLoad, 0, 1},
            {Action::Kind::IssueLoad, 1, 1},
            {Action::Kind::DeliverReq, 1, 0},
        };
        std::vector<std::string> violations;
        for (const Action &a : path)
        {
            std::swap(before, after);
            model->step(before, a, after, violations);
            EXPECT_TRUE(violations.empty()) << a.describe();
        }
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
        waiters |= !l1.mshrWaiters.empty();
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

TEST(VerifyCheckPathAlloc, TransitionMakesNoAllocation)
{
    // Every enabled action of both states, as the explorer takes it:
    // step() into a reused state, hash it, insert the hash.
    BusyPair s;
    WorldState out;
    std::vector<Action> actions;
    std::vector<std::string> violations;
    CanonicalScratch scratch;
    auto transitions = [&](VisitedSet &visited) {
        bool clean = true;
        for (const WorldState *from : {&s.before, &s.after})
        {
            s.model->enabledActions(*from, actions);
            for (const Action &a : actions)
            {
                s.model->step(*from, a, out, violations);
                clean &= violations.empty();
                visited.insert(canonicalHash(out, scratch));
            }
        }
        return clean;
    };
    VisitedSet warm;
    ASSERT_TRUE(transitions(warm));
    ASSERT_GT(warm.size(), 10u);

    // The first measured pass inserts every successor anew, the rest
    // find them all; the table is large enough never to grow.
    VisitedSet visited(1u << 12);
    const std::size_t capacity = visited.capacity();
    const std::uint64_t start = g_allocs.load();
    bool clean = true;
    for (int i = 0; i < kRepeats; ++i)
        clean &= transitions(visited);
    const std::uint64_t allocs = g_allocs.load() - start;
    EXPECT_TRUE(clean);
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(visited.size(), warm.size());
    EXPECT_EQ(visited.capacity(), capacity);
}
