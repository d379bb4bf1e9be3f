/**
 * @file
 * Wall-clock scaling of the parallel sweep runner: the same fixed
 * 16-cell matrix (4 workloads x the 4 figure columns) is executed at
 * jobs = 1, 2, 4 and the hardware thread count, and the speedup over
 * the serial run is reported. Per-run results are identical at every
 * worker count (tests/harness/sweep_test.cc pins that); this harness
 * only measures elapsed time. Emits a human table and a JSON blob,
 * and writes the blob to BENCH_sweep_scaling.json (override with
 * --out PATH) — the schema is documented in EXPERIMENTS.md.
 *
 * A second section measures raw single-thread throughput: every cell
 * of the fig12 matrix (4 workloads x 4 protocol columns) is run
 * serially with default knobs and the per-cell and geomean simulated
 * Mcycles per wall-clock second are reported. This is the number the
 * data-oriented hot-path work optimizes; --baseline-mcyc G embeds a
 * previously recorded geomean so the JSON carries the speedup.
 *
 * A third section measures the persistent result store: the fig12
 * matrix is run twice through a fresh ResultStore — cold (every cell
 * simulates and populates the store) and warm (every cell is served
 * from disk, zero runOne calls) — recording both wall times, the
 * hit/miss counts, and whether the warm results are bit-identical
 * (report CSV rows + full stat dumps) to the cold ones.
 * tools/check_store_perf.py gates this section in CI.
 *
 * A fourth section measures the verification lab's explorer: the
 * default small-state model (2 SMs x 2 lines, SC) is exhaustively
 * enumerated and the unique-state count, transition count and
 * states/second throughput are recorded. tools/check_verify.py gates
 * correctness in CI; this section tracks the checking *rate* the
 * capture/restore/canonicalize machinery sustains.
 *
 * Section selection for CI: --only sweep|single|store|verify runs a
 * single section (the others are emitted empty).
 *
 * Bad input (a malformed knob value) exits 2 with the reason on
 * stderr, as the other harnesses do.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "harness/report.hh"
#include "serve/result_store.hh"
#include "sim/thread_pool.hh"
#include "verify/explorer.hh"

using namespace gtsc;

namespace
{

double
runMatrixSeconds(const std::vector<harness::RunSpec> &specs,
                 unsigned jobs)
{
    harness::SweepOptions opts;
    opts.jobs = jobs;
    opts.progress = true;
    harness::SweepRunner runner(opts);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<harness::RunResult> res = runner.run(specs);
    auto t1 = std::chrono::steady_clock::now();
    // Keep the results alive past the timer so the compiler cannot
    // elide any part of the sweep.
    std::uint64_t guard = 0;
    for (const harness::RunResult &r : res)
        guard += r.cycles;
    if (guard == 0)
        std::fprintf(stderr, "warning: matrix produced zero cycles\n");
    return std::chrono::duration<double>(t1 - t0).count();
}

struct SingleRow
{
    std::string label;
    double secs = 0.0;
    std::uint64_t cycles = 0;
    /** Per-component-type active-cycle fractions (RunResult). */
    double actSm = 0.0, actL1 = 0.0, actL2 = 0.0, actNoc = 0.0,
           actDram = 0.0;
    /** Issue-path fast-lane diagnostics (RunResult counters). */
    std::uint64_t issueSlotsUsed = 0;
    std::uint64_t smTicks = 0;
    std::uint64_t nocTicks = 0;
    std::uint64_t nocPackets = 0;

    double
    mcycPerSec() const
    {
        return secs > 0.0
                   ? static_cast<double>(cycles) / 1e6 / secs
                   : 0.0;
    }

    /** Issue slots filled per executed SM-tick (issue width 1). */
    double
    issueUtil() const
    {
        return smTicks ? static_cast<double>(issueSlotsUsed) /
                             static_cast<double>(smTicks)
                       : 0.0;
    }

    /** Packets popped off the arrival rings per executed NoC tick. */
    double
    nocPopsPerTick() const
    {
        return nocTicks ? static_cast<double>(nocPackets) /
                              static_cast<double>(nocTicks)
                        : 0.0;
    }
};

struct StoreSection
{
    bool ran = false;
    double coldSecs = 0.0;
    double warmSecs = 0.0;
    std::uint64_t coldPuts = 0;
    std::uint64_t warmHits = 0;
    std::uint64_t warmMisses = 0;
    std::uint64_t warmRunOneCalls = 0;
    bool identical = false;
};

struct VerifySection
{
    bool ran = false;
    verify::ExploreStats stats;
    std::size_t violations = 0;
};

int
run(int argc, char **argv)
{
    // Consume the flags benchCfg does not know about before handing
    // the rest of the command line to it (it exits on unknown args).
    std::string outPath = "BENCH_sweep_scaling.json";
    std::string only; // empty = all sections
    double baselineMcyc = 0.0;
    std::vector<char *> passArgv = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (arg.rfind("--out=", 0) == 0) {
            outPath = arg.substr(6);
        } else if (arg == "--only" && i + 1 < argc) {
            only = argv[++i];
        } else if (arg.rfind("--only=", 0) == 0) {
            only = arg.substr(7);
        } else if (arg == "--baseline-mcyc" && i + 1 < argc) {
            baselineMcyc = std::strtod(argv[++i], nullptr);
        } else if (arg.rfind("--baseline-mcyc=", 0) == 0) {
            baselineMcyc = std::strtod(arg.c_str() + 16, nullptr);
        } else {
            passArgv.push_back(argv[i]);
        }
    }
    sim::Config cfg = bench::benchCfg(static_cast<int>(passArgv.size()),
                                      passArgv.data());
    const bool doSweep = only.empty() || only == "sweep";
    const bool doSingle = only.empty() || only == "single";
    const bool doStore = only.empty() || only == "store";
    const bool doVerify = only.empty() || only == "verify";

    const std::vector<std::string> workloads = {"bh", "cc", "vpr",
                                                "bfs"};
    std::vector<harness::RunSpec> specs;
    for (const std::string &wl : workloads) {
        for (const bench::ProtoCfg &pc : bench::figureColumns()) {
            harness::RunSpec spec;
            spec.config = cfg;
            spec.protocol = pc.protocol;
            spec.consistency = pc.consistency;
            spec.workload = wl;
            spec.label = wl + "/" + pc.label;
            specs.push_back(std::move(spec));
        }
    }

    std::set<unsigned> jobSet = {1, 2, 4,
                                 sim::ThreadPool::hardwareWorkers()};

    double serial = 0.0;
    std::vector<std::pair<unsigned, double>> rows;
    if (doSweep) {
        std::printf("Sweep scaling: %zu-cell matrix, hardware "
                    "threads = %u\n\n",
                    specs.size(), sim::ThreadPool::hardwareWorkers());
        std::printf("%-6s %12s %10s\n", "jobs", "seconds", "speedup");
        for (unsigned jobs : jobSet) {
            double secs = runMatrixSeconds(specs, jobs);
            if (jobs == 1)
                serial = secs;
            rows.emplace_back(jobs, secs);
            std::printf("%-6u %12.3f %10.2fx\n", jobs, secs,
                        serial > 0.0 ? serial / secs : 0.0);
            std::fflush(stdout);
        }
    }

    // Single-thread throughput section: the same fig12 matrix the
    // sweep section uses, but each cell run serially and timed
    // individually, reporting simulated Mcycles per wall-clock
    // second. Default knobs — this is the configuration every
    // figure regeneration actually runs in, so it is the number the
    // hot-path work has to move.
    std::vector<SingleRow> singleRows;
    double singleGeomean = 0.0;
    if (doSingle) {
        std::printf("\nSingle-thread throughput, fig12 matrix "
                    "(%zu cells):\n\n",
                    specs.size());
        std::printf("%-16s %12s %14s %12s %12s %10s %9s\n", "cell",
                    "seconds", "cycles", "Mcyc/s", "act sm/l1",
                    "issue", "noc pops");
        double logSum = 0.0;
        for (const harness::RunSpec &spec : specs) {
            // Best-of-3: cells are tens of milliseconds, so take the
            // minimum wall time to shed scheduler/page-cache noise.
            SingleRow row;
            row.label = spec.label;
            for (int rep = 0; rep < 3; ++rep) {
                auto t0 = std::chrono::steady_clock::now();
                harness::RunResult r = harness::runOne(
                    spec.config, spec.protocol, spec.consistency,
                    spec.workload);
                auto t1 = std::chrono::steady_clock::now();
                double secs =
                    std::chrono::duration<double>(t1 - t0).count();
                if (rep == 0 || secs < row.secs)
                    row.secs = secs;
                row.cycles = r.cycles;
                row.actSm = r.activitySm;
                row.actL1 = r.activityL1;
                row.actL2 = r.activityL2;
                row.actNoc = r.activityNoc;
                row.actDram = r.activityDram;
                row.issueSlotsUsed = r.issueSlotsUsed;
                row.smTicks = r.smTicksExecuted;
                row.nocTicks = r.nocTicksExecuted;
                row.nocPackets = r.nocPackets;
            }
            std::printf(
                "%-16s %12.3f %14llu %12.2f  %.2f/%.2f %10.3f %9.3f\n",
                row.label.c_str(), row.secs,
                static_cast<unsigned long long>(row.cycles),
                row.mcycPerSec(), row.actSm, row.actL1,
                row.issueUtil(), row.nocPopsPerTick());
            std::fflush(stdout);
            logSum += std::log(row.mcycPerSec());
            singleRows.push_back(std::move(row));
        }
        singleGeomean = std::exp(
            logSum / static_cast<double>(singleRows.size()));
        std::printf("%-16s %12s %14s %12.2f\n", "geomean", "", "",
                    singleGeomean);
        if (baselineMcyc > 0.0)
            std::printf("speedup vs baseline %.2f Mcyc/s: %.2fx\n",
                        baselineMcyc, singleGeomean / baselineMcyc);
    }

    // Result-store section: the same fig12 matrix through a fresh
    // on-disk ResultStore, cold then warm. The warm pass must hit on
    // every cell (zero simulations) and reproduce the cold results
    // bit-for-bit — that is the property that makes figure
    // regeneration free on a warm store.
    StoreSection st;
    if (doStore) {
        namespace fs = std::filesystem;
        std::string tmpl =
            (fs::temp_directory_path() / "gtsc-store-bench-XXXXXX")
                .string();
        std::vector<char> dirBuf(tmpl.begin(), tmpl.end());
        dirBuf.push_back('\0');
        if (::mkdtemp(dirBuf.data()) == nullptr) {
            std::fprintf(stderr,
                         "warning: mkdtemp failed, skipping store "
                         "section\n");
        } else {
            const std::string dir = dirBuf.data();
            serve::ResultStore::Options ro;
            ro.root = dir;
            harness::SweepOptions so;
            so.jobs = 1;
            so.progress = true;
            std::vector<harness::RunResult> coldRes, warmRes;
            std::printf("\nResult store (fig12 matrix, %zu cells):"
                        "\n\n",
                        specs.size());
            {
                serve::ResultStore store(ro);
                so.cache = &store;
                harness::SweepRunner runner(so);
                auto t0 = std::chrono::steady_clock::now();
                coldRes = runner.run(specs);
                auto t1 = std::chrono::steady_clock::now();
                st.coldSecs =
                    std::chrono::duration<double>(t1 - t0).count();
                st.coldPuts = store.stats().puts;
            }
            {
                serve::ResultStore store(ro);
                so.cache = &store;
                harness::SweepRunner runner(so);
                std::uint64_t before = harness::runOneCallCount();
                auto t0 = std::chrono::steady_clock::now();
                warmRes = runner.run(specs);
                auto t1 = std::chrono::steady_clock::now();
                st.warmSecs =
                    std::chrono::duration<double>(t1 - t0).count();
                st.warmRunOneCalls =
                    harness::runOneCallCount() - before;
                st.warmHits = store.stats().hits;
                st.warmMisses = store.stats().misses;
            }
            st.identical = coldRes.size() == warmRes.size();
            for (std::size_t i = 0;
                 st.identical && i < coldRes.size(); ++i) {
                st.identical =
                    harness::csvRow(coldRes[i]) ==
                        harness::csvRow(warmRes[i]) &&
                    coldRes[i].stats.toString() ==
                        warmRes[i].stats.toString();
            }
            st.ran = true;
            fs::remove_all(dir);
            std::printf("%-18s %12s %10s %8s %8s\n", "pass",
                        "seconds", "run_ones", "hits", "misses");
            std::printf("%-18s %12.3f %10llu %8u %8llu\n", "cold",
                        st.coldSecs,
                        static_cast<unsigned long long>(st.coldPuts),
                        0u,
                        static_cast<unsigned long long>(
                            st.coldPuts));
            std::printf("%-18s %12.3f %10llu %8llu %8llu\n", "warm",
                        st.warmSecs,
                        static_cast<unsigned long long>(
                            st.warmRunOneCalls),
                        static_cast<unsigned long long>(st.warmHits),
                        static_cast<unsigned long long>(
                            st.warmMisses));
            std::printf("warm speedup: %.1fx, bit-identical: %s\n",
                        st.warmSecs > 0.0
                            ? st.coldSecs / st.warmSecs
                            : 0.0,
                        st.identical ? "yes" : "NO");
            std::fflush(stdout);
        }
    }

    // Verify section: exhaust the torture lab's default small-state
    // model (2 SMs x 2 lines x 2 ops, SC) and record the checking
    // throughput the capture/restore/canonicalize machinery sustains.
    // Correctness (complete enumeration, zero violations) is gated by
    // tools/check_verify.py in CI; the number tracked here is the
    // rate.
    VerifySection vf;
    if (doVerify) {
        std::printf("\nVerify explorer (2 SMs x 2 lines x 2 ops, "
                    "SC):\n\n");
        std::fflush(stdout);
        verify::ExploreResult vres = verify::explore(cfg);
        vf.stats = vres.stats;
        vf.violations = vres.witnesses.size();
        vf.ran = true;
        std::printf("%-12s %12s %10s %12s %10s\n", "states",
                    "transitions", "seconds", "states/s",
                    "complete");
        std::printf("%-12llu %12llu %10.2f %12.0f %10s\n",
                    static_cast<unsigned long long>(
                        vf.stats.statesVisited),
                    static_cast<unsigned long long>(
                        vf.stats.transitions),
                    vf.stats.seconds, vf.stats.statesPerSec,
                    vf.stats.complete ? "yes" : "NO");
        if (vf.violations != 0)
            std::printf("VIOLATIONS: %zu (run gtsc_verify --explore "
                        "for witnesses)\n",
                        vf.violations);
        std::fflush(stdout);
    }

    std::ostringstream json;
    json << "{\"bench\": \"sweep_scaling\", \"cells\": "
         << specs.size() << ", \"hw_threads\": "
         << sim::ThreadPool::hardwareWorkers() << ", \"runs\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"jobs\": %u, \"seconds\": %.4f, "
                      "\"speedup\": %.3f}",
                      i ? ", " : "", rows[i].first, rows[i].second,
                      serial > 0.0 ? serial / rows[i].second : 0.0);
        json << buf;
    }
    json << "], \"single_thread\": {\"cells\": [";
    for (std::size_t i = 0; i < singleRows.size(); ++i) {
        const SingleRow &r = singleRows[i];
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"cell\": \"%s\", \"seconds\": %.4f, "
                      "\"cycles\": %llu, \"mcyc_per_sec\": %.3f, "
                      "\"activity\": {\"sm\": %.4f, \"l1\": %.4f, "
                      "\"l2\": %.4f, \"noc\": %.4f, \"dram\": %.4f}, "
                      "\"issue_utilization\": %.4f, "
                      "\"noc_pops_per_tick\": %.4f}",
                      i ? ", " : "", r.label.c_str(), r.secs,
                      static_cast<unsigned long long>(r.cycles),
                      r.mcycPerSec(), r.actSm, r.actL1, r.actL2,
                      r.actNoc, r.actDram, r.issueUtil(),
                      r.nocPopsPerTick());
        json << buf;
    }
    {
        char buf[192];
        std::snprintf(
            buf, sizeof(buf),
            "], \"geomean_mcyc_per_sec\": %.3f, "
            "\"baseline_geomean_mcyc_per_sec\": %.3f, "
            "\"speedup_vs_baseline\": %.3f}",
            singleGeomean, baselineMcyc,
            baselineMcyc > 0.0 ? singleGeomean / baselineMcyc : 0.0);
        json << buf;
    }
    {
        char buf[384];
        if (st.ran) {
            std::snprintf(
                buf, sizeof(buf),
                ", \"result_store\": {\"cells\": %zu, "
                "\"cold_seconds\": %.4f, \"warm_seconds\": %.4f, "
                "\"speedup\": %.3f, \"cold_puts\": %llu, "
                "\"warm_hits\": %llu, \"warm_misses\": %llu, "
                "\"warm_run_one_calls\": %llu, "
                "\"identical\": %s}",
                specs.size(), st.coldSecs, st.warmSecs,
                st.warmSecs > 0.0 ? st.coldSecs / st.warmSecs : 0.0,
                static_cast<unsigned long long>(st.coldPuts),
                static_cast<unsigned long long>(st.warmHits),
                static_cast<unsigned long long>(st.warmMisses),
                static_cast<unsigned long long>(st.warmRunOneCalls),
                st.identical ? "true" : "false");
        } else {
            std::snprintf(buf, sizeof(buf),
                          ", \"result_store\": {\"cells\": 0}");
        }
        json << buf;
    }
    {
        char buf[384];
        if (vf.ran) {
            std::snprintf(
                buf, sizeof(buf),
                ", \"verify\": {\"states\": %llu, "
                "\"transitions\": %llu, \"deduped\": %llu, "
                "\"terminals\": %llu, \"max_depth\": %llu, "
                "\"seconds\": %.4f, \"states_per_sec\": %.1f, "
                "\"complete\": %s, \"violations\": %zu}}",
                static_cast<unsigned long long>(
                    vf.stats.statesVisited),
                static_cast<unsigned long long>(
                    vf.stats.transitions),
                static_cast<unsigned long long>(vf.stats.deduped),
                static_cast<unsigned long long>(vf.stats.terminals),
                static_cast<unsigned long long>(vf.stats.maxDepth),
                vf.stats.seconds, vf.stats.statesPerSec,
                vf.stats.complete ? "true" : "false",
                vf.violations);
        } else {
            std::snprintf(buf, sizeof(buf),
                          ", \"verify\": {\"states\": 0}}");
        }
        json << buf;
    }

    std::printf("\n%s\n", json.str().c_str());
    std::ofstream out(outPath);
    if (out) {
        out << json.str() << "\n";
        std::fprintf(stderr, "wrote %s\n", outPath.c_str());
    } else {
        std::fprintf(stderr, "warning: cannot write %s\n",
                     outPath.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Cells run through SweepRunner and runOne directly, not through
    // bench::Sweep, so catch here what Sweep would have caught.
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        bench::exitOnError(e);
    }
}
