/**
 * Zero-alloc steady state: after a warm-up kernel has populated the
 * packet/MSHR pools, ring buffers, stat counters, memory lines and
 * queue capacities, a subsequent kernel that re-executes the same
 * access pattern must run the entire hot loop — launch, cycle loop,
 * kernel-boundary flush — without a single heap allocation.
 *
 * Global operator new/delete are replaced with counting versions for
 * this binary. They stay out of line: inlined into library code, GCC
 * pairs the malloc/free inside them with the new/delete expressions
 * around them and warns (-Wmismatched-new-delete). The kernel-start
 * hook snapshots the counter at each kernel boundary, so the
 * assertion covers everything between two hook firings. The workload
 * pre-builds the later kernels' programs during the warm-up launch
 * (makeProgram only std::moves them out), keeping the measured region
 * free of test-induced allocations.
 */

#include "gpu/gpu_system.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "protocols/builders.hh"

using namespace gtsc;
using gpu::GpuSystem;
using gpu::WarpInstr;

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

/**
 * Three identical kernels over the same footprint: shared reads (so
 * TC/G-TSC renewal traffic flows), private strided writes, compute
 * and a fence. Kernel 0 is the warm-up; kernels 1 and 2 must not
 * allocate. All programs are built during kernel 0's launch.
 */
class SteadyWorkload : public gpu::Workload
{
  public:
    static constexpr unsigned kKernels = 3;

    std::string name() const override { return "STEADY"; }
    bool requiresCoherence() const override { return false; }
    unsigned numKernels() const override { return kKernels; }

    void
    initMemory(mem::MainMemory &memory, unsigned) override
    {
        // Same lines every kernel: only kernel 0 creates them.
        for (Addr a = kShared; a < kShared + kSharedBytes; a += 4)
            memory.writeWord(a, 1);
    }

    std::unique_ptr<gpu::WarpProgram>
    makeProgram(unsigned kernel, SmId sm, WarpId warp,
                const gpu::GpuParams &params) override
    {
        if (kernel == 0 && stash_.empty()) {
            warpsPerSm_ = params.warpsPerSm;
            const unsigned warps = params.numSms * params.warpsPerSm;
            stash_.resize(kKernels);
            for (unsigned k = 0; k < kKernels; ++k) {
                stash_[k].resize(warps);
                for (unsigned s = 0; s < params.numSms; ++s)
                    for (unsigned w = 0; w < params.warpsPerSm; ++w)
                        stash_[k][s * params.warpsPerSm + w] =
                            build(s, w, params);
            }
        }
        return std::move(stash_[kernel][sm * warpsPerSm_ + warp]);
    }

  private:
    static constexpr Addr kShared = 0x10000;
    static constexpr Addr kPrivate = 0x40000;
    static constexpr unsigned kSharedBytes = 2048;

    std::unique_ptr<gpu::WarpProgram>
    build(SmId sm, WarpId warp, const gpu::GpuParams &params)
    {
        std::vector<WarpInstr> t;
        const unsigned id = sm * params.warpsPerSm + warp;
        const Addr priv = kPrivate + Addr(id) * 4096;
        for (unsigned i = 0; i < 8; ++i) {
            // Everyone streams the shared region (renewals, hits)...
            t.push_back(WarpInstr::loadStrided(
                kShared + (i * 128) % kSharedBytes, params.warpSize));
            t.push_back(WarpInstr::compute(4));
            // ...and writes a private stripe (misses, write-backs).
            t.push_back(WarpInstr::storeStrided(priv + i * 128,
                                                params.warpSize));
        }
        t.push_back(WarpInstr::fence());
        t.push_back(WarpInstr::exit());
        return std::make_unique<gpu::TraceProgram>(std::move(t));
    }

    /** stash_[kernel][sm * warpsPerSm + warp], moved out at launch. */
    std::vector<std::vector<std::unique_ptr<gpu::WarpProgram>>> stash_;
    unsigned warpsPerSm_ = 0;
};

class HotPathAlloc : public ::testing::TestWithParam<const char *>
{
};

} // namespace

TEST_P(HotPathAlloc, SteadyStateKernelsAllocateNothing)
{
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 2);
    cfg.setInt("gpu.warps_per_sm", 4);
    cfg.setInt("gpu.num_partitions", 2);

    auto builder = protocols::makeProtocol(GetParam());
    SteadyWorkload wl;
    GpuSystem sys(cfg, *builder, wl);

    std::vector<std::uint64_t> snap;
    snap.reserve(SteadyWorkload::kKernels); // the hook must not allocate
    sys.setKernelStartHook([&](const mem::MainMemory &, unsigned) {
        snap.push_back(g_allocs.load(std::memory_order_relaxed));
    });
    Cycle cycles = sys.run();
    EXPECT_GT(cycles, 0u);

    ASSERT_EQ(snap.size(), SteadyWorkload::kKernels);
    // Kernel 0 allocates: pools, counters, queues, memory lines.
    EXPECT_GT(snap[1], snap[0]);
    // Kernels 1..N-1 re-run the same pattern with everything warm:
    // launch, cycle loop and boundary flush must stay off the heap.
    EXPECT_EQ(snap[2] - snap[1], 0u)
        << "hot loop allocated " << (snap[2] - snap[1])
        << " times after warm-up";
}

INSTANTIATE_TEST_SUITE_P(Protocols, HotPathAlloc,
                         ::testing::Values("gtsc", "tc", "noncoh", "nol1"),
                         [](const ::testing::TestParamInfo<const char *>
                                &info) { return info.param; });
