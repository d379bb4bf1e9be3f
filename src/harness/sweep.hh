/**
 * @file
 * Parallel experiment-matrix runner.
 *
 * Every (workload, protocol, consistency, config) cell of a figure
 * or ablation matrix is an independent, bit-reproducible simulation:
 * runOne() builds its own GpuSystem, StatSet, RNGs and checker, and
 * nothing in the simulator mutates shared state. SweepRunner exploits
 * that: it fans RunSpecs out over a work-stealing thread pool and
 * hands the RunResults back in submission order, so a sweep at
 * jobs=N is bit-identical to the serial loop it replaces — only
 * wall-clock changes (see tests/harness/sweep_test.cc).
 */

#ifndef GTSC_HARNESS_SWEEP_HH_
#define GTSC_HARNESS_SWEEP_HH_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "sim/config.hh"

namespace gtsc::harness
{

/** One cell of an experiment matrix. */
struct RunSpec
{
    sim::Config config;      ///< full per-run configuration
    std::string protocol;    ///< gtsc|tc|nol1|noncoh
    std::string consistency; ///< sc|tso|rc
    std::string workload;    ///< registry name
    std::string label;       ///< progress display ("" = derived)

    std::string displayLabel() const;
};

/**
 * Pluggable result cache consulted by SweepRunner before it
 * simulates a cell. The persistent, content-addressed on-disk store
 * (serve::ResultStore) implements this; the interface lives here so
 * the harness stays free of serving-layer dependencies. Both methods
 * must be thread-safe — workers insert concurrently.
 */
class SweepCache
{
  public:
    virtual ~SweepCache() = default;

    /** Fill *out and return true on a hit (the cell is not run). */
    virtual bool lookup(const RunSpec &spec, RunResult *out) = 0;

    /** Record a freshly simulated result. */
    virtual void insert(const RunSpec &spec,
                        const RunResult &result) = 0;
};

struct SweepOptions
{
    /**
     * Worker threads, an upper bound: run() starts no more than one
     * per cell to simulate and one per hardware thread. 0 resolves
     * through the GTSC_JOBS environment variable, falling back to the
     * hardware thread count. 1 runs the sweep inline on the calling
     * thread.
     */
    unsigned jobs = 0;

    /** Emit "[k/n]" progress lines to `progressStream`. */
    bool progress = false;
    std::FILE *progressStream = stderr;

    /**
     * Optional result cache: cells that hit skip runOne() entirely
     * and are returned bit-identical to a fresh simulation; misses
     * run and are inserted. Not owned; must outlive run().
     */
    SweepCache *cache = nullptr;

    /**
     * Optional streaming callback, invoked once per cell as it
     * completes (cache hits fire before any simulation starts) with
     * the spec index, the result, and whether it came from the
     * cache. Called from worker threads when jobs > 1 — the callee
     * serializes; results are still returned in submission order.
     */
    std::function<void(std::size_t, const RunResult &, bool)> onResult;
};

class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});

    /**
     * Execute every spec (each via runOne on an isolated config and
     * stat set) and return results in submission order, regardless
     * of completion order. A failing run (fatal/panic) rethrows on
     * the caller's thread after the pool drains, lowest index first;
     * cells above a failed one that have not started are skipped.
     */
    std::vector<RunResult> run(const std::vector<RunSpec> &specs);

    /** The requested worker count, options resolved (see threadsFor). */
    unsigned jobs() const { return jobs_; }

    /** GTSC_JOBS environment override, else hardware threads. */
    static unsigned defaultJobs();

    /**
     * The threads run() starts to simulate `misses` cells: `jobs`,
     * capped at the cell count and at the hardware thread count.
     */
    static unsigned threadsFor(unsigned jobs, std::size_t misses);

  private:
    SweepOptions opts_;
    unsigned jobs_;
};

/**
 * Parse a numeric command-line value: a whole decimal number of at
 * most `max` (digits only, no sign, space or suffix). Returns false
 * on anything else, leaving *out unchanged. Worker counts (the
 * figures and gtscd --jobs, GTSC_JOBS) and gtscd's --max-bytes all
 * parse through here.
 */
bool parseWholeNumber(const std::string &text, std::uint64_t max,
                      std::uint64_t *out);

} // namespace gtsc::harness

#endif // GTSC_HARNESS_SWEEP_HH_
