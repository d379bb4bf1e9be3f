#include "workloads/trace_file.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

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

/** The fatal message fromString(text) throws, or "" if none. */
std::string
parseError(const std::string &text)
{
    try {
        TraceFileWorkload::fromString(text, "T");
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(TraceFile, NumbersMustFitTheirField)
{
    // A sign or a value wider than the field used to wrap: -1 became
    // 2^64-1, and 'warp 4294967297 0' ran as 'warp 1 0'.
    EXPECT_NE(parseError("kernel 0\nwarp 4294967297 0\n")
                  .find("trace line 2: number '4294967297' is larger"),
              std::string::npos);
    EXPECT_NE(parseError("kernel 0\nwarp 0 65536\n").find("trace line 2"),
              std::string::npos)
        << "warp ids are 16-bit";
    EXPECT_NE(parseError("kernel 0\nmem 0x100 -1\n")
                  .find("trace line 2: bad number '-1'"),
              std::string::npos);
    for (const char *bad :
         {"mem 0x100 +1", "mem 0x100 4294967296", "mem 0x100 0x",
          "mem 0x100 1e3", "mem 0x100 0x1g", "mem 0x10000000000000000 1",
          "mem 0x100 0x100000000"}) {
        EXPECT_THROW(TraceFileWorkload::fromString(
                         std::string("kernel 0\n") + bad + "\n", "T"),
                     std::runtime_error)
            << bad;
    }
    for (const char *bad :
         {"ld 0x100 0x1ffffffff", "st 0x100 -5", "st 0x100 1 -1",
          "cmp 4294967296", "spin 0x100 4294967296",
          "spin 0x100 1 99999999999"}) {
        EXPECT_THROW(TraceFileWorkload::fromString(
                         std::string("kernel 0\nwarp 0 0\n") + bad +
                             "\n",
                         "T"),
                     std::runtime_error)
            << bad;
    }

    // The largest value of each field is fine; decimal stays decimal.
    auto wl = TraceFileWorkload::fromString(
        "kernel 0\nmem 0xffffffffffffffc0 4294967295\n"
        "warp 1 010\ncmp 4294967295\nld 0xFFFFFFFFFFFFFF80 0xffffffff\n",
        "T");
    mem::MainMemory memory;
    wl->initMemory(memory, 0);
    EXPECT_EQ(memory.readWord(0xffffffffffffffc0ull), 4294967295u);
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 2);
    cfg.setInt("gpu.warps_per_sm", 11);
    auto p = wl->makeProgram(0, 1, 10, gpu::GpuParams::fromConfig(cfg));
    gpu::WarpInstr c = p->next();
    EXPECT_EQ(c.op, gpu::WarpInstr::Op::Compute);
    EXPECT_EQ(c.computeCycles, 4294967295u);
    EXPECT_EQ(p->next().laneAddr(0), 0xFFFFFFFFFFFFFF80ull);
}

TEST(TraceFile, WarpOutsideTheMachineIsFatal)
{
    // smallGpu() has 2 SMs x 2 warps. Before, these programs were
    // silently never run.
    for (const char *text : {"kernel 0\nwarp 0 0\nld 0x100\nwarp 2 0\n"
                             "ld 0x200\n",
                             "kernel 0\nwarp 0 0\nld 0x100\nwarp 1 2\n"
                             "ld 0x200\n"}) {
        auto wl = TraceFileWorkload::fromString(text, "T");
        std::string what;
        try {
            wl->makeProgram(0, 0, 0, smallGpu());
        } catch (const std::runtime_error &e) {
            what = e.what();
        }
        EXPECT_NE(what.find("trace line 4: 'warp "), std::string::npos)
            << what;
        EXPECT_NE(what.find("names a warp the machine lacks (2 SMs x 2 "
                            "warps)"),
                  std::string::npos)
            << what;
    }
    auto ok = TraceFileWorkload::fromString(
        "kernel 0\nwarp 1 1\nld 0x100\n", "T");
    EXPECT_NO_THROW(ok->makeProgram(0, 0, 0, smallGpu()));
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
