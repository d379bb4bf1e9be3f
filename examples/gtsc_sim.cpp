/**
 * @file
 * gtsc_sim — the command-line driver for the simulator.
 *
 *   gtsc_sim run <protocol> <sc|tso|rc> <workload> [key=value ...]
 *       Run one simulation and print its summary and statistics.
 *       Options: --csv/--json <file> write machine-readable results,
 *                --config <file> loads key=value lines first,
 *                --stats dumps every raw counter, -v / -vv logging.
 *
 *   gtsc_sim sweep <workload> [key=value ...] [--csv <file>]
 *       Run every (protocol, consistency) combination on a workload
 *       and print a comparison table.
 *
 *   gtsc_sim list
 *       List workloads, protocols and consistency models.
 *
 *   gtsc_sim config [key=value ...]
 *       Print every knob with the value a run would use.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "sim/log.hh"
#include "workloads/registry.hh"

namespace
{

using namespace gtsc;

struct Args
{
    std::vector<std::string> positional;
    std::vector<std::string> overrides;
    std::string csvPath;
    std::string jsonPath;
    std::string configPath;
    bool dumpStats = false;
};

Args
parse(int argc, char **argv, int first)
{
    Args args;
    for (int i = first; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--csv" && i + 1 < argc) {
            args.csvPath = argv[++i];
        } else if (a == "--json" && i + 1 < argc) {
            args.jsonPath = argv[++i];
        } else if (a == "--config" && i + 1 < argc) {
            args.configPath = argv[++i];
        } else if (a == "--stats") {
            args.dumpStats = true;
        } else if (a == "-v") {
            sim::setLogLevel(1);
        } else if (a == "-vv") {
            sim::setLogLevel(2);
        } else if (a.find('=') != std::string::npos) {
            args.overrides.push_back(a);
        } else {
            args.positional.push_back(a);
        }
    }
    return args;
}

sim::Config
configFor(const Args &args)
{
    sim::Config cfg = harness::benchConfig();
    if (!args.configPath.empty())
        cfg.loadFile(args.configPath);
    cfg.parseOverrides(args.overrides); // CLI overrides the file
    return cfg;
}

int
cmdRun(const Args &args)
{
    if (args.positional.size() != 3) {
        std::fprintf(stderr,
                     "usage: gtsc_sim run <protocol> <sc|tso|rc> "
                     "<workload> [key=value ...]\n");
        return 2;
    }
    sim::Config cfg = configFor(args);
    harness::RunResult r =
        harness::runOne(cfg, args.positional[0], args.positional[1],
                        args.positional[2]);
    std::printf("%s\n", harness::summaryLine(r).c_str());
    if (args.dumpStats)
        std::printf("%s", r.stats.toString().c_str());
    if (!args.csvPath.empty())
        harness::writeCsv(args.csvPath, {r});
    if (!args.jsonPath.empty())
        harness::writeJson(args.jsonPath, {r});
    return (r.checkerViolations == 0 && r.verified) ? 0 : 1;
}

int
cmdSweep(const Args &args)
{
    if (args.positional.size() != 1) {
        std::fprintf(stderr, "usage: gtsc_sim sweep <workload> "
                             "[key=value ...] [--csv <file>]\n");
        return 2;
    }
    const std::string &wl = args.positional[0];
    sim::Config cfg = configFor(args);

    harness::Table table({"protocol", "model", "cycles", "L1 hit%",
                          "NoC KB", "energy uJ", "violations"});
    std::vector<harness::RunResult> all;
    for (const char *proto : {"nol1", "noncoh", "tc", "gtsc"}) {
        for (const char *cons : {"sc", "tso", "rc"}) {
            harness::RunResult r = harness::runOne(cfg, proto, cons, wl);
            all.push_back(r);
            double probes = static_cast<double>(
                r.l1Hits + r.l1MissCold + r.l1MissExpired);
            table.row(proto);
            table.cell(cons);
            table.cellInt(r.cycles);
            table.cell(probes > 0 ? 100.0 * r.l1Hits / probes : 0.0, 1);
            table.cell(r.nocBytes / 1024.0, 1);
            table.cell(r.energy.total() * 1e6, 1);
            table.cellInt(r.checkerViolations);
        }
    }
    std::printf("%s\n", table.toString().c_str());
    if (!args.csvPath.empty()) {
        harness::writeCsv(args.csvPath, all);
        std::printf("wrote %zu rows to %s\n", all.size(),
                    args.csvPath.c_str());
    }
    if (!args.jsonPath.empty())
        harness::writeJson(args.jsonPath, all);
    return 0;
}

int
cmdList()
{
    std::printf("protocols:   gtsc tc nol1 noncoh\n");
    std::printf("consistency: sc tso rc\n");
    std::printf("workloads (coherence-required):");
    for (const auto &n : workloads::coherentSet())
        std::printf(" %s", n.c_str());
    std::printf("\nworkloads (no coherence needed):");
    for (const auto &n : workloads::privateSet())
        std::printf(" %s", n.c_str());
    std::printf("\ntest kernels: mp sb stress pingpong\n");
    return 0;
}

int
cmdConfig(const Args &args)
{
    std::printf("%s", configFor(args).toString().c_str());
    return 0;
}

int
run(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: gtsc_sim <run|sweep|list|config> ...\n");
        return 2;
    }
    std::string cmd = argv[1];
    Args args = parse(argc, argv, 2);
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "sweep")
        return cmdSweep(args);
    if (cmd == "list")
        return cmdList();
    if (cmd == "config")
        return cmdConfig(args);
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // Bad input (a malformed knob value, a run that overruns
    // gpu.max_cycles) surfaces as GTSC_FATAL's exception: report it
    // and exit like a usage error, not an abort.
    try
    {
        return run(argc, argv);
    }
    catch (const std::exception &e)
    {
        std::fprintf(stderr, "gtsc-sim: %s\n", e.what());
        return 2;
    }
}
