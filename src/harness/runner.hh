/**
 * @file
 * One-call experiment runner: builds a GPU for a (protocol,
 * consistency, workload) triple, runs it under the coherence
 * checker, and returns its statistics with the checker's verdict.
 */

#ifndef GTSC_HARNESS_RUNNER_HH_
#define GTSC_HARNESS_RUNNER_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "energy/energy_model.hh"
#include "obs/session.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gtsc::harness
{

struct RunResult
{
    std::string workload;
    std::string protocol;
    std::string consistency;

    Cycle cycles = 0;

    energy::EnergyBreakdown energy;

    std::uint64_t checkerViolations = 0;
    std::uint64_t loadsChecked = 0;
    bool verified = false;

    /**
     * Cycles the main loop jumped over because no component was due.
     * Reported separately from `stats`: it counts host work saved,
     * not anything simulated.
     */
    std::uint64_t fastForwarded = 0;

    /** Every count of the run; harness/report.hh derives from it. */
    sim::StatSet stats;

    /**
     * Observability state (obs.trace / obs.sample_interval /
     * obs.transcript); null when every obs knob is off. Shared so
     * RunResult stays copyable for the sweep result cache.
     */
    std::shared_ptr<obs::Session> obs;
    /** Files writeFiles() produced under obs.trace_dir, if any. */
    std::vector<std::string> obsFiles;
};

/**
 * Run one simulation.
 *
 * @param base configuration; "gpu.consistency" is overridden by
 *        `consistency`. Set "check.enabled=false" to skip the
 *        runtime coherence checker (benches do, for speed).
 * @param protocol one of gtsc|tc|nol1|noncoh.
 * @param consistency "sc" or "rc".
 * @param workload registry name.
 */
RunResult runOne(const sim::Config &base, const std::string &protocol,
                 const std::string &consistency,
                 const std::string &workload);

/**
 * Process-wide count of runOne() invocations. The result-store
 * tests and the warm-cache CI job read this around a sweep to prove
 * a warm run performed zero simulations.
 */
std::uint64_t runOneCallCount();

/**
 * Laptop-scale default configuration used by tests and benches:
 * a shrunken version of the paper machine (same structure, fewer
 * warps) so a full experiment matrix runs in seconds.
 */
sim::Config benchConfig();

/** Geometric mean helper for figure summaries. */
double geomean(const std::vector<double> &xs);

} // namespace gtsc::harness

#endif // GTSC_HARNESS_RUNNER_HH_
