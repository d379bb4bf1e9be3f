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

#include "harness/runner.hh"

int
main(int argc, char **argv)
{
    gtsc::sim::Config cfg = gtsc::harness::benchConfig();
    for (int i = 1; i < argc; ++i) {
        if (!cfg.parseOverride(argv[i])) {
            std::fprintf(stderr, "bad override '%s'\n", argv[i]);
            return 1;
        }
    }
    std::string consistency = cfg.getString("gpu.consistency");

    gtsc::harness::RunResult r =
        gtsc::harness::runOne(cfg, "gtsc", consistency, "mp");

    std::printf("G-TSC quickstart: message-passing kernel (%s)\n",
                r.consistency.c_str());
    std::printf("  cycles                 %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("  instructions           %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("  L1 hits / cold / expired  %llu / %llu / %llu\n",
                static_cast<unsigned long long>(r.l1Hits),
                static_cast<unsigned long long>(r.l1MissCold),
                static_cast<unsigned long long>(r.l1MissExpired));
    std::printf("  renewal requests       %llu\n",
                static_cast<unsigned long long>(r.renewalsSent));
    std::printf("  NoC bytes              %llu\n",
                static_cast<unsigned long long>(r.nocBytes));
    std::printf("  energy (J)             %.6f\n", r.energy.total());
    std::printf("  loads checked          %llu\n",
                static_cast<unsigned long long>(r.loadsChecked));
    std::printf("  coherence violations   %llu\n",
                static_cast<unsigned long long>(r.checkerViolations));
    std::printf("  functional check       %s\n",
                r.verified ? "PASS" : "FAIL");
    return (r.checkerViolations == 0 && r.verified) ? 0 : 1;
}
