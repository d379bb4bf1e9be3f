#include "workloads/trace_file.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "harness/runner.hh"
#include "workloads/registry.hh"

using namespace gtsc;
using workloads::TraceFileWorkload;

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

const char *kSample = R"(
# message passing as a trace
kernel 0
mem 0x1000 7
warp 0 0
st 0x2000 42
fence
st 0x2080 1
warp 1 0
spin 0x2080 1 512
ld 0x2000
cmp 10
)";

} // namespace

TEST(TraceFile, ParsesDirectives)
{
    auto wl = TraceFileWorkload::fromString(kSample, "T");
    EXPECT_EQ(wl->numKernels(), 1u);

    mem::MainMemory memory;
    wl->initMemory(memory, 0);
    EXPECT_EQ(memory.readWord(0x1000), 7u);

    auto p0 = wl->makeProgram(0, 0, 0, smallGpu());
    gpu::WarpInstr i = p0->next();
    EXPECT_EQ(i.op, gpu::WarpInstr::Op::Store);
    EXPECT_EQ(i.laneAddr(0), 0x2000u);
    EXPECT_TRUE(i.hasValue);
    EXPECT_EQ(i.value, 42u);
    EXPECT_EQ(p0->next().op, gpu::WarpInstr::Op::Fence);
    EXPECT_EQ(p0->next().op, gpu::WarpInstr::Op::Store);
    EXPECT_EQ(p0->next().op, gpu::WarpInstr::Op::Exit);

    auto p1 = wl->makeProgram(0, 1, 0, smallGpu());
    gpu::WarpInstr s = p1->next();
    EXPECT_EQ(s.op, gpu::WarpInstr::Op::SpinLoad);
    EXPECT_EQ(s.spinExpect, 1u);
    EXPECT_EQ(s.spinMaxIters, 512u);
    EXPECT_EQ(p1->next().op, gpu::WarpInstr::Op::Load);
    EXPECT_EQ(p1->next().op, gpu::WarpInstr::Op::Compute);
    EXPECT_EQ(p1->next().op, gpu::WarpInstr::Op::Exit);

    // Unmentioned warps exit immediately.
    auto p2 = wl->makeProgram(0, 0, 1, smallGpu());
    EXPECT_EQ(p2->next().op, gpu::WarpInstr::Op::Exit);
}

TEST(TraceFile, SyntaxErrorsAreFatalWithLineNumbers)
{
    EXPECT_THROW(TraceFileWorkload::fromString("bogus 1 2\n", "T"),
                 std::runtime_error);
    EXPECT_THROW(TraceFileWorkload::fromString("ld 0x100\n", "T"),
                 std::runtime_error) // instruction before warp
        ;
    EXPECT_THROW(TraceFileWorkload::fromString(
                     "warp 0 0\nld nothex\n", "T"),
                 std::runtime_error);
    EXPECT_THROW(TraceFileWorkload::fromString("", "T"),
                 std::runtime_error);
    EXPECT_THROW(TraceFileWorkload::fromString("kernel 5\n", "T"),
                 std::runtime_error); // out of order
}

TEST(TraceFile, BadOpcodeIsFatal)
{
    EXPECT_THROW(TraceFileWorkload::fromString(
                     "kernel 0\nwarp 0 0\nldx 0x100\n", "T"),
                 std::runtime_error);
}

TEST(TraceFile, TruncatedLineIsFatal)
{
    // Each directive missing a required operand.
    EXPECT_THROW(TraceFileWorkload::fromString(
                     "kernel 0\nwarp 0\n", "T"),
                 std::runtime_error);
    EXPECT_THROW(TraceFileWorkload::fromString(
                     "kernel 0\nmem 0x100\n", "T"),
                 std::runtime_error);
    EXPECT_THROW(TraceFileWorkload::fromString(
                     "kernel 0\nwarp 0 0\nst 0x100\n", "T"),
                 std::runtime_error);
    EXPECT_THROW(TraceFileWorkload::fromString(
                     "kernel 0\nwarp 0 0\nspin 0x100\n", "T"),
                 std::runtime_error);
    EXPECT_THROW(TraceFileWorkload::fromString("kernel\n", "T"),
                 std::runtime_error);
}

TEST(TraceFile, EmptyKernelIsFatal)
{
    // A declared kernel with no warp programs and no mem init is a
    // trace bug (it would silently simulate nothing).
    EXPECT_THROW(TraceFileWorkload::fromString("kernel 0\n", "T"),
                 std::runtime_error);
    EXPECT_THROW(TraceFileWorkload::fromString(
                     "kernel 0\nwarp 0 0\nld 0x100\nkernel 1\n", "T"),
                 std::runtime_error);
    // mem-init-only kernels stay legal (pure-load kernels exist).
    EXPECT_NO_THROW(TraceFileWorkload::fromString(
        "kernel 0\nmem 0x100 1\n", "T"));
}

TEST(TraceFile, RunsEndToEndThroughRegistry)
{
    // Write the sample to disk and run it through the full stack.
    std::string path = "/tmp/gtsc_trace_test.trace";
    {
        std::ofstream out(path);
        out << kSample;
    }
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 2);
    cfg.setInt("gpu.warps_per_sm", 2);
    cfg.setInt("gpu.num_partitions", 2);
    harness::RunResult r =
        harness::runOne(cfg, "gtsc", "rc", "trace:" + path);
    EXPECT_EQ(r.checkerViolations, 0u);
    EXPECT_EQ(r.stats.get("sm.spin_giveups"), 0u);
    EXPECT_GT(r.stats.get("sm.instructions"), 5u);
    std::remove(path.c_str());
}

TEST(TraceFile, MissingFileIsFatal)
{
    EXPECT_THROW(TraceFileWorkload("/nonexistent.trace"),
                 std::runtime_error);
}
