/**
 * @file
 * Determinism regression for the parallel sweep runner: the same
 * RunSpec matrix must produce bit-identical RunResults whether it is
 * executed serially via runOne() or fanned out over 1, 2, or 8
 * workers. This is the contract every figure driver relies on when
 * it is run with --jobs.
 */

#include "harness/sweep.hh"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/thread_pool.hh"

using namespace gtsc;
using harness::RunResult;
using harness::RunSpec;
using harness::SweepOptions;
using harness::SweepRunner;

namespace
{

sim::Config
tiny()
{
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 2);
    cfg.setInt("gpu.warps_per_sm", 2);
    cfg.setInt("gpu.num_partitions", 2);
    cfg.setDouble("wl.scale", 0.25);
    return cfg;
}

std::vector<RunSpec>
matrix()
{
    std::vector<RunSpec> specs;
    for (const char *wl : {"bh", "vpr", "cc"})
        for (const char *proto : {"gtsc", "tc"})
            specs.push_back(RunSpec{tiny(), proto, "rc", wl, ""});
    // A couple of per-cell config variants, as lease sweeps produce.
    sim::Config lease = tiny();
    lease.setInt("tc.lease", 400);
    specs.push_back(RunSpec{lease, "tc", "sc", "bh", "bh lease=400"});
    specs.push_back(RunSpec{tiny(), "gtsc", "sc", "vpr", ""});
    return specs;
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.protocol, b.protocol);
    EXPECT_EQ(a.consistency, b.consistency);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.memStallCycles, b.memStallCycles);
    EXPECT_EQ(a.nocBytes, b.nocBytes);
    EXPECT_EQ(a.nocPackets, b.nocPackets);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1MissCold, b.l1MissCold);
    EXPECT_EQ(a.l1MissExpired, b.l1MissExpired);
    EXPECT_EQ(a.checkerViolations, b.checkerViolations);
    EXPECT_EQ(a.loadsChecked, b.loadsChecked);
    EXPECT_EQ(a.verified, b.verified);
    // The full stat dump, not just the derived metrics: any shared
    // mutable state between workers would show up here first.
    EXPECT_EQ(a.stats.toString(), b.stats.toString());
}

} // namespace

TEST(Sweep, ParallelMatchesSerialBitForBit)
{
    std::vector<RunSpec> specs = matrix();

    std::vector<RunResult> serial;
    serial.reserve(specs.size());
    for (const RunSpec &s : specs)
        serial.push_back(harness::runOne(s.config, s.protocol,
                                         s.consistency, s.workload));

    for (unsigned jobs : {1u, 2u, 8u}) {
        SweepOptions opts;
        opts.jobs = jobs;
        SweepRunner runner(opts);
        EXPECT_EQ(runner.jobs(), jobs);
        std::vector<RunResult> parallel = runner.run(specs);
        ASSERT_EQ(parallel.size(), serial.size()) << "jobs=" << jobs;
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs) + " spec#" +
                         std::to_string(i) + " " +
                         specs[i].displayLabel());
            expectIdentical(serial[i], parallel[i]);
        }
    }
}

TEST(Sweep, RepeatedParallelRunsAreStable)
{
    // Re-running the same matrix on the same runner must also be
    // reproducible (no cross-run state inside the pool).
    std::vector<RunSpec> specs = matrix();
    SweepOptions opts;
    opts.jobs = 4;
    SweepRunner runner(opts);
    std::vector<RunResult> first = runner.run(specs);
    std::vector<RunResult> second = runner.run(specs);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE("spec#" + std::to_string(i));
        expectIdentical(first[i], second[i]);
    }
}

TEST(Sweep, ResultsComeBackInSubmissionOrder)
{
    std::vector<RunSpec> specs = matrix();
    SweepOptions opts;
    opts.jobs = 8;
    std::vector<RunResult> res = SweepRunner(opts).run(specs);
    ASSERT_EQ(res.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(res[i].protocol, specs[i].protocol);
        EXPECT_EQ(res[i].consistency, specs[i].consistency);
    }
}

TEST(Sweep, EmptyMatrixIsANoOp)
{
    EXPECT_TRUE(SweepRunner().run({}).empty());
}

TEST(Sweep, FailingRunRethrowsOnCaller)
{
    std::vector<RunSpec> specs = matrix();
    specs[2].protocol = "mesi"; // unknown: runOne throws
    SweepOptions opts;
    opts.jobs = 4;
    SweepRunner runner(opts);
    EXPECT_THROW(runner.run(specs), std::runtime_error);
}

TEST(Sweep, FailureSkipsLaterCellsAndReportsTheLowest)
{
    // Two workers take cells round-robin and run their own share in
    // order, so cell 0 fails at once on worker 0 and cell 5 fails on
    // worker 1 before it reaches cell 7: at least cell 7 is skipped.
    std::vector<RunSpec> specs = matrix();
    ASSERT_GE(specs.size(), 8u);
    specs[0].config.setInt("gpu.warp_size", 64);
    specs[5].protocol = "mesi";
    SweepOptions opts;
    opts.jobs = 2;
    SweepRunner runner(opts);
    const std::uint64_t before = harness::runOneCallCount();
    try {
        runner.run(specs);
        ADD_FAILURE() << "the sweep did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("gpu.warp_size"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_LT(harness::runOneCallCount() - before, specs.size());
}

TEST(Sweep, ParseWholeNumberTakesDigitsUpToMax)
{
    std::uint64_t v = 7;
    EXPECT_TRUE(harness::parseWholeNumber("0", 10, &v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(harness::parseWholeNumber("4294967295", UINT32_MAX, &v));
    EXPECT_EQ(v, UINT32_MAX);
    EXPECT_TRUE(
        harness::parseWholeNumber("18446744073709551615", UINT64_MAX, &v));
    EXPECT_EQ(v, UINT64_MAX);

    v = 7;
    for (const char *bad : {"", "abc", "-1", "+1", " 1", "1 ", "1k",
                            "2.5", "0x10", "4294967296",
                            "18446744073709551616"})
        EXPECT_FALSE(harness::parseWholeNumber(bad, UINT32_MAX, &v))
            << bad;
    EXPECT_EQ(v, 7u);
}

TEST(Sweep, ThreadsAreCappedAtCellsAndHardware)
{
    // A pure function: nothing here starts a thread.
    const unsigned hw = sim::ThreadPool::hardwareWorkers();
    EXPECT_EQ(SweepRunner::threadsFor(UINT_MAX, 1000000), hw);
    EXPECT_EQ(SweepRunner::threadsFor(UINT_MAX, 1), 1u);
    EXPECT_EQ(SweepRunner::threadsFor(1, 1000000), 1u);
    EXPECT_EQ(SweepRunner::threadsFor(2, 1000000), std::min(2u, hw));
}
