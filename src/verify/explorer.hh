/**
 * @file
 * Exhaustive small-state explorer: DFS over settled simulator states
 * of the real G-TSC controllers (verify::ModelSim), checking the
 * invariant library after every transition and reporting a minimized
 * witness trace on violation.
 *
 * The state space is finite by construction (bounded op budgets,
 * bounded message multisets, canonicalized dedup) but caps guard
 * against blowup anyway:
 *  - verify.max_states (1000000): unique states to visit; finding
 *    one more stops the search (a space of exactly this many states
 *    still closes)
 *  - verify.max_depth (64): DFS depth; deeper states are not expanded
 *  - verify.max_epochs (3): states at or past this domain epoch are
 *    not expanded (bounds rollover exploration)
 *  - verify.max_witnesses (1): stop after this many violations
 * A run is `complete` only if nothing was truncated by any cap and no
 * witness cut the search short — i.e. the reachable space was fully
 * enumerated.
 */

#ifndef GTSC_VERIFY_EXPLORER_HH_
#define GTSC_VERIFY_EXPLORER_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "verify/model.hh"
#include "verify/state.hh"

namespace gtsc::verify
{

struct ExploreStats
{
    std::uint64_t statesVisited = 0; ///< unique canonical states
    std::uint64_t transitions = 0;   ///< step() calls
    std::uint64_t deduped = 0;       ///< transitions into known states
    std::uint64_t truncated = 0;     ///< states not expanded (caps)
    std::uint64_t terminals = 0;     ///< states with no transition
    std::uint64_t maxDepth = 0;
    bool complete = false; ///< full enumeration, nothing truncated
    double seconds = 0.0;
    double statesPerSec = 0.0;
};

/** One invariant violation with its minimized replay. */
struct Witness
{
    /** Minimized action path from the initial state (1-minimal:
     *  removing any single action no longer reproduces). */
    std::vector<Action> actions;
    std::vector<std::string> violations;
    /** Human-readable report: violations, trace, message transcript
     *  in the obs::Transcript format. */
    std::string report;
};

struct ExploreResult
{
    ExploreStats stats;
    std::vector<Witness> witnesses;

    bool ok() const { return witnesses.empty(); }
};

/**
 * Build a ModelSim from `cfg` and exhaust its state space. All
 * verify.* / gtsc.* knobs are read from the config; the run is fully
 * deterministic.
 */
ExploreResult explore(const sim::Config &cfg);

} // namespace gtsc::verify

#endif // GTSC_VERIFY_EXPLORER_HH_
