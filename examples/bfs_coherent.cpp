/**
 * @file
 * Domain example: level-synchronized BFS — the paper's motivating
 * irregular workload — run on every protocol/consistency pair, with
 * a side-by-side comparison of cycles, L1 behaviour, traffic and
 * energy. Shows why timestamp coherence matters for irregular
 * GPU workloads with inter-SM read-write sharing.
 *
 * Usage: bfs_coherent [key=value ...]
 */

#include <cstdio>
#include <exception>

#include "harness/report.hh"
#include "harness/table.hh"

namespace
{

int
run(int argc, char **argv)
{
    using namespace gtsc;
    sim::Config cfg = harness::benchConfig();
    cfg.setBool("check.enabled", true); // demonstrate checked runs
    cfg.parseOverrides(std::vector<std::string>(argv + 1, argv + argc));

    struct Cfg
    {
        const char *proto;
        const char *cons;
        const char *label;
    };
    const Cfg configs[] = {
        {"nol1", "rc", "BL (no L1)"}, {"tc", "sc", "TC-SC"},
        {"tc", "rc", "TC-RC"},        {"gtsc", "sc", "G-TSC-SC"},
        {"gtsc", "rc", "G-TSC-RC"},
    };

    harness::Table table({"config", "cycles", "speedup", "L1 hit%",
                          "renewals", "NoC KB", "energy uJ",
                          "violations"});
    double base = 0;
    for (const Cfg &c : configs) {
        harness::RunResult r =
            harness::runOne(cfg, c.proto, c.cons, "bfs");
        if (base == 0)
            base = static_cast<double>(r.cycles);
        table.row(c.label);
        table.cellInt(r.cycles);
        table.cell(base / static_cast<double>(r.cycles));
        table.cell(harness::l1HitPercent(r), 1);
        table.cellInt(r.stats.get("l1.renewals_sent"));
        table.cell(harness::nocBytes(r) / 1024.0, 1);
        table.cell(r.energy.total() * 1e6, 1);
        table.cellInt(r.checkerViolations);
    }

    std::printf("BFS (3 level-synchronized kernels) across "
                "coherence protocols\n\n%s\n",
                table.toString().c_str());
    std::printf("G-TSC services frontier/visited sharing with "
                "logical-time renewals instead of physical leases:\n"
                "no write stalls, data-less renewals, and no global "
                "synchronized counters.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bfs_coherent: %s\n", e.what());
        return 2;
    }
}
