#include "workloads/registry.hh"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "workloads/common.hh"

using namespace gtsc;

namespace
{

gpu::GpuParams
smallGpu()
{
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 2);
    cfg.setInt("gpu.warps_per_sm", 2);
    return gpu::GpuParams::fromConfig(cfg);
}

std::vector<gpu::WarpInstr>
drain(gpu::WarpProgram &prog, unsigned limit = 100000)
{
    std::vector<gpu::WarpInstr> out;
    for (unsigned i = 0; i < limit; ++i) {
        gpu::WarpInstr instr = prog.next();
        out.push_back(instr);
        if (instr.op == gpu::WarpInstr::Op::Exit)
            return out;
        if (instr.op == gpu::WarpInstr::Op::Load ||
            instr.op == gpu::WarpInstr::Op::SpinLoad) {
            prog.observe(1); // pretend flags are raised
        }
    }
    ADD_FAILURE() << "program did not terminate";
    return out;
}

/** The message of the exception `fn` throws, or "" when none. */
template <typename Fn>
std::string
errorOf(Fn fn)
{
    try {
        fn();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(WlParams, ScaleMustBeGreaterThanZero)
{
    for (const char *scale : {"0", "-0", "-1", "-0.5"}) {
        sim::Config cfg;
        cfg.set("wl.scale", scale);
        EXPECT_NE(errorOf([&] { workloads::WlParams::fromConfig(cfg); })
                      .find("config key 'wl.scale' is "),
                  std::string::npos)
            << scale;
        EXPECT_THROW(workloads::makeWorkload("cc", cfg), std::runtime_error)
            << scale;
    }
}

TEST(WlParams, ScaledCountMustFitAnUnsigned)
{
    sim::Config cfg;
    cfg.set("wl.scale", "0.5");
    workloads::WlParams p = workloads::WlParams::fromConfig(cfg);
    EXPECT_EQ(p.iters(24), 12u);
    EXPECT_EQ(p.iters(1), 1u);
    p.scale = 4294967295.0;
    EXPECT_EQ(p.iters(1), 4294967295u);
    p.scale = 4294967296.0;
    EXPECT_NE(errorOf([&] { p.iters(1); })
                  .find("config key 'wl.scale' is 4.29497e+09: it scales 1 "
                        "iterations to 4.29497e+09, more than 4294967295"),
              std::string::npos);
    // A workload builds its programs from the scaled counts.
    cfg.set("wl.scale", "1e300");
    auto wl = workloads::makeWorkload("cc", cfg);
    EXPECT_THROW(wl->makeProgram(0, 0, 0, smallGpu()), std::runtime_error);
}

TEST(Registry, AllTwelveBenchmarksExist)
{
    sim::Config cfg;
    auto all = workloads::allBenchmarks();
    EXPECT_EQ(all.size(), 12u);
    for (const auto &name : all) {
        auto wl = workloads::makeWorkload(name, cfg);
        ASSERT_NE(wl, nullptr) << name;
        EXPECT_FALSE(wl->name().empty());
    }
    EXPECT_THROW(workloads::makeWorkload("nope", cfg),
                 std::runtime_error);
}

TEST(Registry, SetsPartitionCorrectly)
{
    sim::Config cfg;
    for (const auto &name : workloads::coherentSet()) {
        EXPECT_TRUE(workloads::makeWorkload(name, cfg)
                        ->requiresCoherence())
            << name;
    }
    for (const auto &name : workloads::privateSet()) {
        EXPECT_FALSE(workloads::makeWorkload(name, cfg)
                         ->requiresCoherence())
            << name;
    }
}

TEST(Registry, ProgramsTerminateAndAreDeterministic)
{
    sim::Config cfg;
    cfg.setDouble("wl.scale", 0.3);
    auto gpu_params = smallGpu();
    for (const auto &name : workloads::allBenchmarks()) {
        auto wl1 = workloads::makeWorkload(name, cfg);
        auto wl2 = workloads::makeWorkload(name, cfg);
        for (unsigned k = 0; k < wl1->numKernels(); ++k) {
            auto p1 = wl1->makeProgram(k, 0, 1, gpu_params);
            auto p2 = wl2->makeProgram(k, 0, 1, gpu_params);
            auto t1 = drain(*p1);
            auto t2 = drain(*p2);
            ASSERT_EQ(t1.size(), t2.size()) << name;
            for (std::size_t i = 0; i < t1.size(); ++i) {
                EXPECT_EQ(t1[i].op, t2[i].op) << name << " @" << i;
                EXPECT_EQ(t1[i].laneAddr(0), t2[i].laneAddr(0))
                    << name << " @" << i;
            }
        }
    }
}

TEST(Registry, DifferentWarpsGetDifferentStreams)
{
    sim::Config cfg;
    auto gpu_params = smallGpu();
    auto wl = workloads::makeWorkload("vpr", cfg);
    auto a = drain(*wl->makeProgram(0, 0, 0, gpu_params));
    auto b = drain(*wl->makeProgram(0, 1, 0, gpu_params));
    bool differ = a.size() != b.size();
    for (std::size_t i = 0; !differ && i < a.size(); ++i)
        differ = a[i].laneAddr(0) != b[i].laneAddr(0);
    EXPECT_TRUE(differ);
}

TEST(Registry, PrivateSetHasNoSharedStores)
{
    // The no-coherence set must only store to per-warp private
    // regions (shared regions are read-only after init).
    sim::Config cfg;
    auto gpu_params = smallGpu();
    for (const auto &name : workloads::privateSet()) {
        auto wl = workloads::makeWorkload(name, cfg);
        for (unsigned k = 0; k < wl->numKernels(); ++k) {
            auto t = drain(*wl->makeProgram(k, 0, 0, gpu_params));
            for (const auto &instr : t) {
                if (instr.op != gpu::WarpInstr::Op::Store)
                    continue;
                for (unsigned l = 0; l < gpu_params.warpSize; ++l) {
                    if (!(instr.activeMask & (1u << l)))
                        continue;
                    EXPECT_GE(instr.laneAddr(l), workloads::kPrivateBase)
                        << name;
                }
            }
        }
    }
}
