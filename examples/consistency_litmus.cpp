/**
 * @file
 * Domain example: memory-consistency litmus tests on top of the
 * coherence protocols. Runs message-passing and store-buffering
 * kernels across (protocol, model) pairs and reports the observed
 * outcomes — the programmer-visible face of Section II-B.
 *
 * Usage: consistency_litmus [key=value ...]
 */

#include <cstdio>
#include <exception>

#include "harness/runner.hh"
#include "harness/table.hh"

namespace
{

int
run(int argc, char **argv)
{
    using namespace gtsc;
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 4);
    cfg.setInt("gpu.warps_per_sm", 4);
    cfg.setInt("gpu.num_partitions", 2);
    cfg.parseOverrides(std::vector<std::string>(argv + 1, argv + argc));

    harness::Table table({"protocol", "model", "MP: data after flag",
                          "SB: (0,0) forbidden", "checked loads",
                          "violations"});
    int failures = 0;
    for (const char *proto : {"gtsc", "tc", "nol1"}) {
        for (const char *cons : {"sc", "rc"}) {
            harness::RunResult mp =
                harness::runOne(cfg, proto, cons, "mp");
            harness::RunResult sb =
                harness::runOne(cfg, proto, cons, "sb");
            table.row(proto);
            table.cell(cons);
            table.cell(mp.verified ? "PASS" : "FAIL");
            table.cell(sb.verified ? "PASS" : "FAIL");
            table.cellInt(mp.loadsChecked + sb.loadsChecked);
            table.cellInt(mp.checkerViolations + sb.checkerViolations);
            failures += !mp.verified + !sb.verified +
                        (mp.checkerViolations > 0) +
                        (sb.checkerViolations > 0);
        }
    }

    std::printf("Litmus outcomes (message passing, store "
                "buffering with fences)\n\n%s\n",
                table.toString().c_str());
    std::printf("MP: a consumer that spun until the flag was set "
                "must read the producer's data.\n"
                "SB: with a fence between each thread's store and "
                "load, both threads reading 0 is forbidden.\n");
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "consistency_litmus: %s\n", e.what());
        return 2;
    }
}
