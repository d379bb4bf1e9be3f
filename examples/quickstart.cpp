/**
 * @file
 * Quickstart: build a GPU with the G-TSC protocol, run the
 * message-passing microkernel under release consistency, and print
 * the headline statistics. See README.md for a walkthrough.
 *
 * Usage: quickstart [key=value ...]
 *   e.g. quickstart gpu.num_sms=8 gtsc.lease=16 gpu.consistency=sc
 */

#include <cstdio>
#include <exception>

#include "harness/report.hh"

namespace
{

int
run(int argc, char **argv)
{
    gtsc::sim::Config cfg = gtsc::harness::benchConfig();
    cfg.parseOverrides(std::vector<std::string>(argv + 1, argv + argc));
    std::string consistency = cfg.getString("gpu.consistency");

    gtsc::harness::RunResult r =
        gtsc::harness::runOne(cfg, "gtsc", consistency, "mp");
    auto count = [&r](const char *stat) {
        return static_cast<unsigned long long>(r.stats.get(stat));
    };

    std::printf("G-TSC quickstart: message-passing kernel (%s)\n",
                r.consistency.c_str());
    std::printf("  cycles                 %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("  instructions           %llu\n",
                count("sm.instructions"));
    std::printf("  L1 hits / cold / expired  %llu / %llu / %llu\n",
                count("l1.hits"), count("l1.miss_cold"),
                count("l1.miss_expired"));
    std::printf("  renewal requests       %llu\n",
                count("l1.renewals_sent"));
    std::printf("  NoC bytes              %llu\n",
                static_cast<unsigned long long>(
                    gtsc::harness::nocBytes(r)));
    std::printf("  energy (J)             %.6f\n", r.energy.total());
    std::printf("  loads checked          %llu\n",
                static_cast<unsigned long long>(r.loadsChecked));
    std::printf("  coherence violations   %llu\n",
                static_cast<unsigned long long>(r.checkerViolations));
    std::printf("  functional check       %s\n",
                r.verified ? "PASS" : "FAIL");
    return (r.checkerViolations == 0 && r.verified) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "quickstart: %s\n", e.what());
        return 2;
    }
}
