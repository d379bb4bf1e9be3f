#include "verify/explorer.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "sim/log.hh"
#include "verify/shrink.hh"

namespace gtsc::verify
{

namespace
{

/**
 * Replay `path` from the initial state. Returns false (and leaves
 * `violations` empty) if some action is not enabled at its turn —
 * shrink candidates routinely drop an action a later one depended on.
 * With `wantTerminal`, the path only "fails" if it ends in a stuck
 * terminal; otherwise any invariant violation along the way counts.
 */
bool
replayFails(ModelSim &model, const WorldState &root,
            const std::vector<Action> &path, bool wantTerminal,
            std::vector<std::string> *violations = nullptr)
{
    WorldState cur = root;
    WorldState next;
    std::vector<Action> enabled;
    std::vector<std::string> found;
    for (const Action &a : path)
    {
        model.enabledActions(cur, enabled);
        if (std::find(enabled.begin(), enabled.end(), a) ==
            enabled.end())
            return false;
        model.step(cur, a, next, found);
        if (!found.empty())
        {
            if (wantTerminal)
                return false;
            if (violations)
                *violations = std::move(found);
            return true;
        }
        std::swap(cur, next);
    }
    if (!wantTerminal)
        return false;
    model.enabledActions(cur, enabled);
    if (!enabled.empty())
        return false;
    auto term = model.checkTerminal(cur);
    if (term.empty())
        return false;
    if (violations)
        *violations = std::move(term);
    return true;
}

Witness
buildWitness(ModelSim &model, const WorldState &root,
             std::vector<Action> path, bool wantTerminal)
{
    Witness w;
    w.actions = ddmin(std::move(path), [&](const std::vector<Action> &c) {
        return replayFails(model, root, c, wantTerminal);
    });

    // One last replay with a transcript: the report's message history
    // covers exactly the minimized trace.
    obs::Transcript transcript(64, "");
    model.setTranscript(&transcript);
    bool fails =
        replayFails(model, root, w.actions, wantTerminal, &w.violations);
    model.setTranscript(nullptr);
    GTSC_ASSERT(fails, "minimized witness stopped reproducing");

    std::ostringstream oss;
    oss << "=== G-TSC verification witness ===\n";
    oss << "violations:\n";
    for (const auto &v : w.violations)
        oss << "  - " << v << "\n";
    oss << "trace (" << w.actions.size() << " actions from reset):\n";
    for (std::size_t i = 0; i < w.actions.size(); ++i)
        oss << "  " << (i + 1) << ". " << w.actions[i].describe()
            << "\n";
    oss << "message transcript:\n";
    transcript.writeText(oss);
    w.report = oss.str();
    return w;
}

} // namespace

ExploreResult
explore(const sim::Config &cfg)
{
    ModelSim model(cfg);
    const std::uint64_t maxStates = cfg.getUint("verify.max_states");
    const std::uint64_t maxDepth = cfg.getUint("verify.max_depth");
    const std::uint32_t maxEpochs = cfg.getUnsigned("verify.max_epochs");
    const std::uint64_t maxWitnesses = cfg.getUint("verify.max_witnesses");

    ExploreResult result;
    ExploreStats &stats = result.stats;
    const auto t0 = std::chrono::steady_clock::now();
    bool capped = false;

    auto init = model.init();
    WorldState root = init.state;
    if (!init.violations.empty())
    {
        Witness w;
        w.violations = init.violations;
        w.report = "=== G-TSC verification witness ===\n"
                   "violations (in the initial state):\n";
        for (const auto &v : w.violations)
            w.report += "  - " + v + "\n";
        result.witnesses.push_back(std::move(w));
    }
    else
    {
        CanonicalScratch canon;
        VisitedSet visited;
        visited.insert(canonicalHash(root, canon));
        stats.statesVisited = 1;

        // The stack never shrinks: `depth` frames are live, and the
        // ones above keep their storage for the next descent. A new
        // state is swapped from the step target into the next frame,
        // whose old storage becomes the next step target, so a
        // transition into a known state frees nothing.
        struct Frame
        {
            WorldState state;
            std::vector<Action> actions;
            std::size_t next = 0;
            /** Action that produced this frame (unused on the root). */
            Action via{};
        };
        std::vector<Frame> stack(1);
        stack[0].state = root;
        model.enabledActions(root, stack[0].actions);
        std::size_t depth = 1;
        WorldState target;
        std::vector<std::string> violations;

        auto pathTo = [&](std::size_t frames) {
            std::vector<Action> path;
            for (std::size_t i = 1; i < frames; ++i)
                path.push_back(stack[i].via);
            return path;
        };

        while (depth > 0)
        {
            Frame &top = stack[depth - 1];
            if (top.actions.empty())
            {
                ++stats.terminals;
                if (!model.checkTerminal(top.state).empty())
                {
                    result.witnesses.push_back(buildWitness(
                        model, root, pathTo(depth), true));
                    if (result.witnesses.size() >= maxWitnesses)
                        break;
                }
                --depth;
                continue;
            }
            if (top.next >= top.actions.size())
            {
                --depth;
                continue;
            }
            const Action action = top.actions[top.next++];
            ++stats.transitions;
            model.step(top.state, action, target, violations);
            if (!violations.empty())
            {
                std::vector<Action> path = pathTo(depth);
                path.push_back(action);
                result.witnesses.push_back(
                    buildWitness(model, root, std::move(path), false));
                if (result.witnesses.size() >= maxWitnesses)
                    break;
                continue;
            }
            if (!visited.insert(canonicalHash(target, canon)))
            {
                ++stats.deduped;
                continue;
            }
            // Only a unique state beyond the cap truncates: a space of
            // exactly maxStates states still closes.
            if (stats.statesVisited >= maxStates)
            {
                capped = true;
                break;
            }
            ++stats.statesVisited;
            stats.maxDepth = std::max<std::uint64_t>(stats.maxDepth, depth);
            if (depth >= maxDepth || target.domain.epoch >= maxEpochs)
            {
                ++stats.truncated;
                continue;
            }
            if (depth == stack.size())
                stack.emplace_back();
            Frame &child = stack[depth++];
            std::swap(child.state, target);
            model.enabledActions(child.state, child.actions);
            child.next = 0;
            child.via = action;
        }
    }

    const auto t1 = std::chrono::steady_clock::now();
    stats.seconds =
        std::chrono::duration<double>(t1 - t0).count();
    stats.statesPerSec =
        stats.seconds > 0.0
            ? static_cast<double>(stats.statesVisited) / stats.seconds
            : 0.0;
    stats.complete =
        !capped && stats.truncated == 0 && result.witnesses.empty();
    return result;
}

} // namespace gtsc::verify
