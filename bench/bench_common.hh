/**
 * @file
 * Shared machinery of the `figures` program (figures.cc): the bench
 * machine and its command line, the figure columns, the two-pass
 * sweep every report reads its cells through, and the paper's
 * reported numbers (used to print paper-vs-measured columns; see
 * EXPERIMENTS.md).
 */

#ifndef GTSC_BENCH_BENCH_COMMON_HH_
#define GTSC_BENCH_BENCH_COMMON_HH_

#include <cctype>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "serve/result_store.hh"
#include "workloads/registry.hh"

namespace gtsc::bench
{

/** A (protocol, consistency) column of a figure. */
struct ProtoCfg
{
    std::string protocol;
    std::string consistency;
    std::string label;
};

/** The four coherence-protocol columns of Figures 12/13/15/16/17. */
inline std::vector<ProtoCfg>
figureColumns()
{
    return {{"tc", "sc", "TC-SC"},
            {"tc", "rc", "TC-RC"},
            {"gtsc", "sc", "G-TSC-SC"},
            {"gtsc", "rc", "G-TSC-RC"}};
}

/**
 * Default bench configuration with the CLI's key=value overrides
 * applied. --jobs N / --jobs=N is parsed into *jobs (a whole decimal
 * number, else exit 2 with "figures: bad --jobs value '<text>'"),
 * --trace-dir DIR / --trace-dir=DIR maps to obs.trace_dir (with
 * obs.trace defaulted on so the flag alone produces per-run traces),
 * and every other argument without '=' is appended to *names.
 */
inline sim::Config
benchCfg(int argc, char **argv, unsigned *jobs,
         std::vector<std::string> *names)
{
    sim::Config cfg = harness::benchConfig();
    cfg.setInt("gpu.num_sms", 8);
    cfg.setInt("gpu.warps_per_sm", 12);
    cfg.setInt("gpu.num_partitions", 4);
    cfg.setBool("check.enabled", false);
    auto parseJobs = [](const std::string &text) {
        std::uint64_t n = 0;
        if (!harness::parseWholeNumber(text, UINT_MAX, &n)) {
            std::fprintf(stderr, "figures: bad --jobs value '%s'\n",
                         text.c_str());
            std::exit(2);
        }
        return static_cast<unsigned>(n);
    };
    std::string trace_dir;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc) {
            *jobs = parseJobs(argv[++i]);
        } else if (arg.rfind("--jobs=", 0) == 0) {
            *jobs = parseJobs(arg.substr(7));
        } else if (arg == "--trace-dir" && i + 1 < argc) {
            trace_dir = argv[++i];
        } else if (arg.rfind("--trace-dir=", 0) == 0) {
            trace_dir = arg.substr(12);
        } else if (arg[0] != '-' && arg.find('=') == std::string::npos) {
            names->push_back(arg);
        } else if (!cfg.parseOverride(arg)) {
            std::fprintf(stderr, "bad override '%s'\n", argv[i]);
            std::exit(2);
        }
    }
    if (!trace_dir.empty()) {
        cfg.set("obs.trace_dir", trace_dir);
        if (!cfg.has("obs.trace"))
            cfg.setBool("obs.trace", true);
    }
    return cfg;
}

/**
 * Two-pass cell cache over SweepRunner.
 *
 * A report reads every cell it needs with get() and prints with
 * print(). `figures` calls each report twice. In the recording pass,
 * get() notes the cell and returns an empty result, and print()
 * drops its output. execute() then simulates the union of the
 * recorded cells once, in parallel, and the real pass reads them
 * back. This is exact because a report's cells depend only on the
 * config, never on a result; a get() of a cell the recording pass
 * did not see is a fatal error. Cells are keyed by (explicit config,
 * protocol, consistency, workload), so a cell several reports read
 * is simulated once. Per-run results do not depend on parallelism:
 * each cell is an isolated, deterministic simulation. A cell that
 * throws ends the program with exit status 2.
 */
class Sweep
{
  public:
    Sweep(const sim::Config &base, unsigned jobs)
        : base_(base), jobs_(jobs)
    {}

    /** The base config with one knob set to `value`. */
    sim::Config
    with(const std::string &key, const std::string &value) const
    {
        sim::Config c = base_;
        c.set(key, value);
        return c;
    }

    const harness::RunResult &
    get(const ProtoCfg &pc, const std::string &workload)
    {
        return get(base_, pc, workload);
    }

    const harness::RunResult &
    get(const sim::Config &cfg, const ProtoCfg &pc,
        const std::string &workload)
    {
        static const harness::RunResult kEmpty;
        std::string k = pc.protocol + '\n' + pc.consistency + '\n' +
                        workload + '\n' + cfg.explicitString();
        auto it = index_.find(k);
        if (!recording_) {
            if (it == index_.end()) {
                std::fprintf(stderr,
                             "figures: fatal: cell %s/%s was not "
                             "recorded\n",
                             workload.c_str(), pc.label.c_str());
                std::exit(2);
            }
            return results_[it->second];
        }
        if (it == index_.end()) {
            index_.emplace(std::move(k), specs_.size());
            harness::RunSpec spec;
            spec.config = cfg;
            spec.protocol = pc.protocol;
            spec.consistency = pc.consistency;
            spec.workload = workload;
            spec.label = workload + "/" + pc.label;
            specs_.push_back(std::move(spec));
        }
        return kEmpty;
    }

    /** printf to stdout in the real pass; dropped while recording. */
    [[gnu::format(printf, 2, 3)]] void
    print(const char *fmt, ...)
    {
        if (recording_)
            return;
        std::va_list args;
        va_start(args, fmt);
        std::vprintf(fmt, args);
        va_end(args);
    }

    /** Simulate every recorded cell once and start the real pass. */
    void
    execute()
    {
        harness::SweepOptions opts;
        opts.jobs = jobs_;
        opts.progress = true;
        try {
            // sweep.store=1 routes every cell through the persistent
            // content-addressed result store: warm reruns of a figure
            // skip simulation entirely (see docs/SERVING.md).
            std::shared_ptr<serve::ResultStore> store =
                serve::storeFromConfig(base_);
            opts.cache = store.get();
            results_ = harness::SweepRunner(opts).run(specs_);
        } catch (const std::exception &e) {
            // Bad input that surfaced as an exception (GTSC_FATAL on a
            // malformed knob value, a gpu.max_cycles overrun) exits 2
            // with "figures: fatal: <reason>", as gtsc-sim and
            // gtsc_verify do, instead of aborting.
            std::fprintf(stderr, "figures: %s\n", e.what());
            std::exit(2);
        }
        std::fprintf(stderr, "%60s\r", "");
        recording_ = false;
    }

  private:
    sim::Config base_;
    unsigned jobs_;
    bool recording_ = true;
    std::map<std::string, std::size_t> index_;
    std::vector<harness::RunSpec> specs_;
    std::vector<harness::RunResult> results_;
};

/** Paper Table II: absolute execution cycles (millions), as reported
 * on the authors' G-TSC simulator. */
struct Table2Row
{
    const char *bench;
    double blPaper;
    double tcPaper;
};

inline const std::vector<Table2Row> &
paperTable2()
{
    static const std::vector<Table2Row> kRows = {
        {"bh", 0.55, 0.84},  {"cc", 1.47, 1.77},  {"dlp", 1.63, 1.63},
        {"vpr", 0.85, 0.90}, {"stn", 2.00, 1.74}, {"bfs", 0.79, 2.32},
        {"ccp", 13.50, 13.50}, {"ge", 2.22, 2.49}, {"hs", 0.22, 0.23},
        {"km", 28.74, 30.78}, {"bp", 0.84, 0.69}, {"sgm", 6.08, 6.14},
    };
    return kRows;
}

/** Upper-case display name of a registry workload id. */
inline std::string
displayName(const std::string &id)
{
    std::string out = id;
    for (auto &c : out)
        c = static_cast<char>(std::toupper(c));
    return out;
}

} // namespace gtsc::bench

#endif // GTSC_BENCH_BENCH_COMMON_HH_
