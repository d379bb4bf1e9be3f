#include "verify/explorer.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_set>
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
    for (const Action &a : path)
    {
        auto enabled = model.enabledActions(cur);
        if (std::find(enabled.begin(), enabled.end(), a) ==
            enabled.end())
            return false;
        auto out = model.step(cur, a);
        if (!out.violations.empty())
        {
            if (wantTerminal)
                return false;
            if (violations)
                *violations = std::move(out.violations);
            return true;
        }
        cur = std::move(out.state);
    }
    if (!wantTerminal)
        return false;
    if (!model.enabledActions(cur).empty())
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

    // One last replay with a fresh transcript: the report's message
    // history covers exactly the minimized trace.
    model.clearTranscript();
    bool fails =
        replayFails(model, root, w.actions, wantTerminal, &w.violations);
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
    model.transcript().writeText(oss);
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
        std::unordered_set<Hash128, Hash128Hasher> visited;
        visited.insert(canonicalHash(root, canon));
        stats.statesVisited = 1;

        struct Frame
        {
            WorldState state;
            std::vector<Action> actions;
            std::size_t next = 0;
            /** Action that produced this frame (unused on the root). */
            Action via{};
        };
        std::vector<Frame> stack;
        stack.push_back(
            Frame{root, model.enabledActions(root), 0, Action{}});

        auto currentPath = [&](const Action &last) {
            std::vector<Action> path;
            for (std::size_t i = 1; i < stack.size(); ++i)
                path.push_back(stack[i].via);
            path.push_back(last);
            return path;
        };

        while (!stack.empty())
        {
            Frame &top = stack.back();
            if (top.actions.empty())
            {
                ++stats.terminals;
                if (!model.checkTerminal(top.state).empty())
                {
                    std::vector<Action> path;
                    for (std::size_t i = 1; i < stack.size(); ++i)
                        path.push_back(stack[i].via);
                    result.witnesses.push_back(buildWitness(
                        model, root, std::move(path), true));
                    if (result.witnesses.size() >= maxWitnesses)
                        break;
                }
                stack.pop_back();
                continue;
            }
            if (top.next >= top.actions.size())
            {
                stack.pop_back();
                continue;
            }
            const Action action = top.actions[top.next++];
            ++stats.transitions;
            auto out = model.step(top.state, action);
            if (!out.violations.empty())
            {
                result.witnesses.push_back(buildWitness(
                    model, root, currentPath(action), false));
                if (result.witnesses.size() >= maxWitnesses)
                    break;
                continue;
            }
            if (!visited.insert(canonicalHash(out.state, canon)).second)
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
            const std::uint64_t depth = stack.size();
            stats.maxDepth = std::max(stats.maxDepth, depth);
            if (depth >= maxDepth ||
                out.state.domain.epoch >= maxEpochs)
            {
                ++stats.truncated;
                continue;
            }
            std::vector<Action> actions =
                model.enabledActions(out.state);
            stack.push_back(Frame{std::move(out.state),
                                  std::move(actions), 0, action});
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
