/**
 * @file
 * Protocol explorer: run any (protocol, consistency, workload)
 * combination and print the full statistics dump, the coherence-
 * checker verdict and the energy breakdown. The workhorse example
 * for poking at the simulator.
 *
 * Usage: protocol_explorer <protocol> <sc|rc> <workload> [key=value..]
 *   protocols: gtsc tc nol1 noncoh
 *   workloads: bh cc dlp vpr stn bfs ccp ge hs km bp sgm
 *              mp sb stress pingpong
 */

#include <cstdio>
#include <exception>

#include "harness/runner.hh"
#include "sim/log.hh"

namespace
{

int
run(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr,
                     "usage: %s <protocol> <sc|rc> <workload> "
                     "[key=value ...]\n",
                     argv[0]);
        return 2;
    }
    gtsc::sim::setLogLevel(1);
    gtsc::sim::Config cfg = gtsc::harness::benchConfig();
    cfg.parseOverrides(std::vector<std::string>(argv + 4, argv + argc));

    gtsc::harness::RunResult r =
        gtsc::harness::runOne(cfg, argv[1], argv[2], argv[3]);

    std::printf("== %s / %s / %s ==\n", r.workload.c_str(),
                r.protocol.c_str(), r.consistency.c_str());
    std::printf("%s", r.stats.toString().c_str());
    std::printf("energy.core %.6e J\n", r.energy.core);
    std::printf("energy.l1 %.6e J\n", r.energy.l1);
    std::printf("energy.l2 %.6e J\n", r.energy.l2);
    std::printf("energy.noc %.6e J\n", r.energy.noc);
    std::printf("energy.dram %.6e J\n", r.energy.dram);
    std::printf("energy.total %.6e J\n", r.energy.total());
    std::printf("checker.loads %llu\n",
                static_cast<unsigned long long>(r.loadsChecked));
    std::printf("checker.violations %llu\n",
                static_cast<unsigned long long>(r.checkerViolations));
    std::printf("workload.verified %s\n", r.verified ? "true" : "false");
    return (r.checkerViolations == 0 && r.verified) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "protocol_explorer: %s\n", e.what());
        return 2;
    }
}
