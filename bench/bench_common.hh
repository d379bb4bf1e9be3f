/**
 * @file
 * Shared machinery for the figure/table harnesses: the run matrix,
 * the parallel sweep cache every driver runs its cells through,
 * normalization helpers and the paper's reported numbers (used to
 * print paper-vs-measured columns; see EXPERIMENTS.md).
 */

#ifndef GTSC_BENCH_BENCH_COMMON_HH_
#define GTSC_BENCH_BENCH_COMMON_HH_

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
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
 * Worker-count knob shared by every driver. Set by --jobs N /
 * --jobs=N on the command line (benchCfg); 0 defers to the GTSC_JOBS
 * environment variable and then the hardware thread count.
 */
inline unsigned &
jobsFlag()
{
    static unsigned jobs = 0;
    return jobs;
}

/** The program's name for error messages: argv[0]'s basename, set
 * by benchCfg. */
inline std::string &
programName()
{
    static std::string name = "bench";
    return name;
}

/**
 * Report bad input that surfaced as an exception (GTSC_FATAL on a
 * malformed knob value, a run that overruns gpu.max_cycles) the way
 * gtsc-sim and gtsc_verify do — "<program>: fatal: <reason>" on
 * stderr — and exit 2 like a usage error instead of aborting.
 */
[[noreturn]] inline void
exitOnError(const std::exception &e)
{
    std::fprintf(stderr, "%s: %s\n", programName().c_str(), e.what());
    std::exit(2);
}

/**
 * Parse a --jobs value: a whole decimal number (0 = default), or exit
 * 2 with "<program>: bad --jobs value '<text>'".
 */
inline unsigned
parseJobs(const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    unsigned long jobs = std::strtoul(text.c_str(), &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE || jobs > UINT_MAX) {
        std::fprintf(stderr, "%s: bad --jobs value '%s'\n",
                     programName().c_str(), text.c_str());
        std::exit(2);
    }
    return static_cast<unsigned>(jobs);
}

/**
 * Default bench configuration; CLI key=value overrides applied,
 * --jobs N / --jobs=N consumed into jobsFlag(), and
 * --trace-dir DIR / --trace-dir=DIR mapped to obs.trace_dir (with
 * obs.trace defaulted on so the flag alone produces per-run traces).
 */
inline sim::Config
benchCfg(int argc, char **argv)
{
    if (argc > 0) {
        std::string self = argv[0];
        programName() = self.substr(self.find_last_of('/') + 1);
    }
    sim::Config cfg = harness::benchConfig();
    cfg.setInt("gpu.num_sms", 8);
    cfg.setInt("gpu.warps_per_sm", 12);
    cfg.setInt("gpu.num_partitions", 4);
    cfg.setBool("check.enabled", false);
    std::string trace_dir;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc) {
            jobsFlag() = parseJobs(argv[++i]);
            continue;
        }
        if (arg.rfind("--jobs=", 0) == 0) {
            jobsFlag() = parseJobs(arg.substr(7));
            continue;
        }
        if (arg == "--trace-dir" && i + 1 < argc) {
            trace_dir = argv[++i];
            continue;
        }
        if (arg.rfind("--trace-dir=", 0) == 0) {
            trace_dir = arg.substr(12);
            continue;
        }
        if (!cfg.parseOverride(arg)) {
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
 * Plan/execute cache over SweepRunner.
 *
 * Drivers declare every cell they will need with plan() (mirroring
 * their result loops), then read results back with get(): the first
 * get() executes all planned cells in parallel. Cells are keyed by
 * (explicit config, protocol, consistency, workload), so repeated
 * plans of the same cell dedupe into one simulation and a get() of
 * a never-planned cell still works (it runs serially and is
 * cached). Per-run results are unchanged by parallelism — each cell
 * is an isolated, deterministic simulation. A cell that throws ends
 * the program through exitOnError().
 */
class Sweep
{
  public:
    explicit Sweep(const sim::Config &base) : base_(base) {}

    void
    plan(const ProtoCfg &pc, const std::string &workload)
    {
        plan(base_, pc, workload);
    }

    void
    plan(const sim::Config &cfg, const ProtoCfg &pc,
         const std::string &workload)
    {
        std::string k = key(cfg, pc, workload);
        if (results_.count(k) || planned_.count(k))
            return;
        planned_.insert(k);
        harness::RunSpec spec;
        spec.config = cfg;
        spec.protocol = pc.protocol;
        spec.consistency = pc.consistency;
        spec.workload = workload;
        spec.label = workload + "/" + pc.label;
        pending_.push_back(std::move(spec));
        pendingKeys_.push_back(std::move(k));
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
        execute();
        std::string k = key(cfg, pc, workload);
        auto it = results_.find(k);
        if (it != results_.end())
            return it->second;
        // Unplanned cell: run it serially (old runCell behaviour).
        std::fprintf(stderr, "  running %-5s %-9s ...\r",
                     workload.c_str(), pc.label.c_str());
        std::fflush(stderr);
        try {
            harness::RunResult r = harness::runOne(
                cfg, pc.protocol, pc.consistency, workload);
            return results_.emplace(k, std::move(r)).first->second;
        } catch (const std::exception &e) {
            exitOnError(e);
        }
    }

    /** Run everything planned so far (get() calls this lazily). */
    void
    execute()
    {
        if (pending_.empty())
            return;
        harness::SweepOptions opts;
        opts.jobs = jobsFlag();
        opts.progress = true;
        std::vector<harness::RunResult> out;
        try {
            // sweep.store=1 routes every cell through the persistent
            // content-addressed result store: warm reruns of a figure
            // skip simulation entirely (see docs/SERVING.md).
            if (!store_)
                store_ = serve::storeFromConfig(base_);
            opts.cache = store_.get();
            harness::SweepRunner runner(opts);
            out = runner.run(pending_);
        } catch (const std::exception &e) {
            exitOnError(e);
        }
        for (std::size_t i = 0; i < out.size(); ++i)
            results_.emplace(pendingKeys_[i], std::move(out[i]));
        pending_.clear();
        pendingKeys_.clear();
        planned_.clear();
    }

  private:
    static std::string
    key(const sim::Config &cfg, const ProtoCfg &pc,
        const std::string &workload)
    {
        return pc.protocol + '\n' + pc.consistency + '\n' + workload +
               '\n' + cfg.explicitString();
    }

    sim::Config base_;
    std::shared_ptr<serve::ResultStore> store_;
    std::vector<harness::RunSpec> pending_;
    std::vector<std::string> pendingKeys_;
    std::set<std::string> planned_;
    std::map<std::string, harness::RunResult> results_;
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
