/**
 * The full benchmark matrix under the runtime coherence checker:
 * every paper benchmark on every coherent protocol and consistency
 * model (plus the non-coherent L1 on the set that tolerates it),
 * at a tiny configuration. This is the broadest correctness net:
 * every workload's access patterns drive every protocol.
 *
 * The whole matrix is simulated once, up front, through the parallel
 * SweepRunner (worker count from GTSC_JOBS, default hardware
 * threads); each TEST_P then asserts on its cached cell. Results are
 * identical to running each cell inline — see sweep_test.cc for the
 * determinism regression.
 */

#include <gtest/gtest.h>

#include <map>

#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "workloads/registry.hh"

using namespace gtsc;
using harness::RunResult;
using harness::RunSpec;

namespace
{

struct MatrixParam
{
    std::string workload;
    std::string protocol;
    std::string consistency;

    std::string
    tag() const
    {
        return workload + "_" + protocol + "_" + consistency;
    }
};

std::vector<MatrixParam>
buildMatrix()
{
    std::vector<MatrixParam> out;
    for (const auto &wl : workloads::allBenchmarks()) {
        for (const char *proto : {"gtsc", "tc", "nol1"}) {
            for (const char *cons : {"sc", "rc"})
                out.push_back({wl, proto, cons});
        }
        out.push_back({wl, "gtsc", "tso"});
    }
    for (const auto &wl : workloads::privateSet())
        out.push_back({wl, "noncoh", "rc"});
    return out;
}

sim::Config
matrixConfig()
{
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 4);
    cfg.setInt("gpu.warps_per_sm", 4);
    cfg.setInt("gpu.num_partitions", 2);
    cfg.setInt("l1.size_bytes", 4 * 1024);
    cfg.setInt("l2.partition_bytes", 32 * 1024);
    cfg.setDouble("wl.scale", 0.4);
    return cfg;
}

/** Simulate the whole matrix once (parallel); cache per-cell. */
const RunResult &
matrixResult(const MatrixParam &p)
{
    static const std::map<std::string, RunResult> kResults = [] {
        std::vector<MatrixParam> params = buildMatrix();
        std::vector<RunSpec> specs;
        specs.reserve(params.size());
        for (const auto &mp : params) {
            RunSpec spec;
            spec.config = matrixConfig();
            spec.protocol = mp.protocol;
            spec.consistency = mp.consistency;
            spec.workload = mp.workload;
            spec.label = mp.tag();
            specs.push_back(std::move(spec));
        }
        harness::SweepRunner runner;
        std::vector<RunResult> results = runner.run(specs);
        std::map<std::string, RunResult> byTag;
        for (std::size_t i = 0; i < params.size(); ++i)
            byTag.emplace(params[i].tag(), std::move(results[i]));
        return byTag;
    }();
    return kResults.at(p.tag());
}

class BenchmarkMatrix : public ::testing::TestWithParam<MatrixParam>
{
};

} // namespace

TEST_P(BenchmarkMatrix, RunsCleanUnderChecker)
{
    const MatrixParam &p = GetParam();
    const RunResult &r = matrixResult(p);
    EXPECT_GT(r.stats.get("sm.instructions"), 0u);
    EXPECT_GT(r.loadsChecked, 0u) << p.tag();
    EXPECT_EQ(r.checkerViolations, 0u) << p.tag();
    EXPECT_TRUE(r.verified) << p.tag();
    // Warps must not have abandoned synchronization spins.
    EXPECT_EQ(r.stats.get("sm.spin_giveups"), 0u) << p.tag();
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkMatrix,
    ::testing::ValuesIn(buildMatrix()),
    [](const ::testing::TestParamInfo<MatrixParam> &info) {
        return info.param.tag();
    });
