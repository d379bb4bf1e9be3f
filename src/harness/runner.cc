#include "harness/runner.hh"

#include <atomic>
#include <cmath>

#include "gpu/gpu_system.hh"
#include "harness/checker.hh"
#include "protocols/builders.hh"
#include "sim/log.hh"
#include "workloads/registry.hh"

namespace gtsc::harness
{

namespace
{
std::atomic<std::uint64_t> gRunOneCalls{0};
} // namespace

std::uint64_t
runOneCallCount()
{
    return gRunOneCalls.load(std::memory_order_relaxed);
}

RunResult
runOne(const sim::Config &base, const std::string &protocol,
       const std::string &consistency, const std::string &workload)
{
    gRunOneCalls.fetch_add(1, std::memory_order_relaxed);
    sim::Config cfg = base;
    cfg.set("gpu.consistency", consistency);

    auto builder = protocols::makeProtocol(protocol);
    auto wl = workloads::makeWorkload(workload, cfg);

    bool check = cfg.getBool("check.enabled");
    CoherenceChecker checker;

    gpu::GpuSystem system(cfg, *builder, *wl,
                          check ? &checker : nullptr);
    std::shared_ptr<obs::Session> obs = obs::Session::fromConfig(cfg);
    if (obs) {
        system.attachObs(*obs);
        if (check)
            checker.setTranscript(obs->transcript());
    }
    if (check) {
        system.setKernelStartHook(
            [&checker](const mem::MainMemory &memory, unsigned kernel) {
                (void)kernel;
                checker.snapshotBase(memory);
            });
    }

    RunResult r;
    r.workload = wl->name();
    r.protocol = protocol;
    r.consistency = consistency;
    r.cycles = system.run();

    const sim::StatSet &s = system.stats();
    r.instructions = s.get("sm.instructions");
    r.memStallCycles = s.get("sm.mem_stall_cycles");
    r.activeCycles = s.get("sm.active_cycles");
    r.nocBytes = s.get("noc.req.bytes") + s.get("noc.resp.bytes");
    r.nocPackets = s.get("noc.req.packets") + s.get("noc.resp.packets");
    {
        sim::Distribution d = s.getDistribution("noc.req.latency");
        d.merge(s.getDistribution("noc.resp.latency"));
        r.avgNocLatency = d.mean();
        r.nocLatencyStddev = d.stddev();
        r.nocLatencyP50 = d.p50();
        r.nocLatencyP99 = d.p99();
    }
    r.l1Hits = s.get("l1.hits");
    r.l1MissCold = s.get("l1.miss_cold");
    r.l1MissExpired = s.get("l1.miss_expired");
    r.renewalsSent = s.get("l1.renewals_sent");
    r.l2Accesses = s.get("l2.accesses");
    r.dramAccesses = s.get("dram.reads") + s.get("dram.writes");
    r.tsResets = s.get("gtsc.ts_resets");
    r.spinRetries = s.get("sm.spin_retries");
    r.spinGiveups = s.get("sm.spin_giveups");

    energy::EnergyModel em(cfg);
    r.energy = em.compute(s, protocol, system.params().numSms);

    if (check) {
        r.checkerViolations = checker.violations();
        r.loadsChecked = checker.loadsChecked();
        if (r.checkerViolations > 0) {
            for (const auto &rep : checker.reports())
                GTSC_INFORM("coherence violation [", workload, "/",
                            protocol, "/", consistency, "]: ", rep);
        }
    }
    r.verified = wl->verify(system.memory());
    r.fastForwarded = system.fastForwardedCycles();
    r.stats = system.stats();
    r.obs = obs;
    std::string trace_dir = cfg.getString("obs.trace_dir");
    if (obs && !trace_dir.empty()) {
        r.obsFiles = obs->writeFiles(
            trace_dir, obs::fileStem(r.workload, protocol, consistency,
                                     cfg.canonicalString()));
    }
    return r;
}

sim::Config
benchConfig()
{
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 8);
    cfg.setInt("gpu.warps_per_sm", 8);
    cfg.setInt("gpu.num_partitions", 4);
    cfg.setInt("l1.size_bytes", 16 * 1024);
    cfg.setInt("l2.partition_bytes", 128 * 1024);
    cfg.setDouble("wl.scale", 1.0);
    return cfg;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

} // namespace gtsc::harness
