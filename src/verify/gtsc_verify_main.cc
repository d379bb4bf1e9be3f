/**
 * @file
 * gtsc_verify: driver for the protocol verification lab.
 *
 *   gtsc_verify --explore [key=value ...]
 *       Exhaustively enumerate the small-state model (verify.sms x
 *       verify.lines, see src/verify/model.hh) and check every
 *       invariant on every transition. Prints a minimized witness
 *       trace on violation. Exit 1 if any violation was found.
 *
 *   gtsc_verify --litmus [--count N] [--seed S] [key=value ...]
 *       Generate N seeded litmus tests (shapes round-robin) and run
 *       them across the protocol x consistency matrix with
 *       forbidden-outcome oracles; failures are shrunk to a minimal
 *       replayable spec. Exit 1 on any failure.
 *
 *   gtsc_verify --litmus-replay '<spec>' [protocol=P] [key=value ...]
 *       Re-run one spec string (from a failure report) — across its
 *       whole matrix, or one cell when protocol=/gpu.consistency= are
 *       given.
 *
 *   Common flags:
 *     --rollover        preset for timestamp-epoch rollover torture
 *                       (8-bit timestamps, one overflow-sized spin
 *                       boost; closes completely, see --help text in
 *                       the option handler)
 *     --mutation NAME   enable a test-only FSM mutation (verify.
 *                       mutation) — the explorer must catch it
 *     --out FILE.json   machine-readable results (tools/
 *                       check_verify.py gates on this)
 *
 *   Exit 2 on a usage error or rejected input (e.g. verify.sms=9,
 *   verify.max_states=abc, an undeclared key, --count 0, --seed -1);
 *   the reason goes to stderr.
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "sim/config.hh"
#include "sim/text.hh"
#include "verify/explorer.hh"
#include "verify/litmus_gen.hh"

using namespace gtsc;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: gtsc_verify --explore|--litmus|"
                 "--litmus-replay '<spec>' [--count N] [--seed S]\n"
                 "                   [--rollover] [--mutation NAME] "
                 "[--out FILE.json] [key=value ...]\n");
    return 2;
}

/** Reject a numeric flag whose value is not a whole number. */
int
badValue(const char *flag, const char *text)
{
    std::fprintf(stderr, "gtsc_verify: bad %s value '%s'\n", flag, text);
    return 2;
}

int
runExplore(const sim::Config &cfg, const std::string &outPath)
{
    auto result = verify::explore(cfg);
    const auto &s = result.stats;
    std::printf("explore: %llu states, %llu transitions "
                "(%llu deduped, %llu truncated, %llu terminals), "
                "max depth %llu, %.2fs (%.0f states/s), %s\n",
                static_cast<unsigned long long>(s.statesVisited),
                static_cast<unsigned long long>(s.transitions),
                static_cast<unsigned long long>(s.deduped),
                static_cast<unsigned long long>(s.truncated),
                static_cast<unsigned long long>(s.terminals),
                static_cast<unsigned long long>(s.maxDepth), s.seconds,
                s.statesPerSec,
                s.complete ? "complete" : "INCOMPLETE");
    for (const auto &w : result.witnesses)
        std::printf("%s", w.report.c_str());

    if (!outPath.empty())
    {
        std::ostringstream oss;
        oss << "{\n  \"mode\": \"explore\",\n"
            << "  \"complete\": " << (s.complete ? "true" : "false")
            << ",\n  \"states_visited\": " << s.statesVisited
            << ",\n  \"transitions\": " << s.transitions
            << ",\n  \"deduped\": " << s.deduped
            << ",\n  \"truncated\": " << s.truncated
            << ",\n  \"terminals\": " << s.terminals
            << ",\n  \"max_depth\": " << s.maxDepth
            << ",\n  \"seconds\": " << s.seconds
            << ",\n  \"states_per_sec\": " << s.statesPerSec
            << ",\n  \"violations\": " << result.witnesses.size()
            << ",\n  \"witnesses\": [";
        for (std::size_t i = 0; i < result.witnesses.size(); ++i)
        {
            const auto &w = result.witnesses[i];
            oss << (i ? "," : "") << "\n    {\"actions\": [";
            for (std::size_t a = 0; a < w.actions.size(); ++a)
                oss << (a ? ", " : "") << "\""
                    << sim::jsonEscape(w.actions[a].describe()) << "\"";
            oss << "], \"violations\": [";
            for (std::size_t v = 0; v < w.violations.size(); ++v)
                oss << (v ? ", " : "") << "\""
                    << sim::jsonEscape(w.violations[v]) << "\"";
            oss << "]}";
        }
        oss << (result.witnesses.empty() ? "" : "\n  ") << "]\n}\n";
        std::ofstream f(outPath);
        f << oss.str();
    }
    return result.ok() ? 0 : 1;
}

int
runLitmusBatchMode(const sim::Config &base, std::uint64_t seed,
                   unsigned count, const std::string &outPath)
{
    auto result = verify::runLitmusBatch(base, seed, count);
    std::printf("litmus: %u tests, %u runs, %zu failures "
                "(base seed %llu)\n",
                result.tests, result.runs, result.failures.size(),
                static_cast<unsigned long long>(seed));
    for (const auto &f : result.failures)
        std::printf("%s", f.report.c_str());

    if (!outPath.empty())
    {
        std::ostringstream oss;
        oss << "{\n  \"mode\": \"litmus\",\n"
            << "  \"seed\": " << seed
            << ",\n  \"tests\": " << result.tests
            << ",\n  \"runs\": " << result.runs
            << ",\n  \"violations\": " << result.failures.size()
            << ",\n  \"failures\": [";
        for (std::size_t i = 0; i < result.failures.size(); ++i)
        {
            const auto &f = result.failures[i];
            oss << (i ? "," : "") << "\n    {\"seed\": " << f.seed
                << ", \"cell\": \"" << f.protocol << "/"
                << f.consistency << "\", \"spec\": \""
                << sim::jsonEscape(f.spec.format()) << "\"}";
        }
        oss << (result.failures.empty() ? "" : "\n  ") << "]\n}\n";
        std::ofstream f(outPath);
        f << oss.str();
    }
    return result.ok() ? 0 : 1;
}

int
runReplay(const sim::Config &base, const std::string &specText,
          const std::string &protocol)
{
    workloads::LitmusSpec spec;
    std::string err;
    if (!workloads::LitmusSpec::parse(specText, spec, &err))
    {
        std::fprintf(stderr, "bad litmus spec: %s\n", err.c_str());
        return 2;
    }
    std::vector<std::pair<std::string, std::string>> cells;
    // A one-cell replay runs SC unless gpu.consistency is given.
    if (!protocol.empty())
        cells.emplace_back(protocol,
                           base.has("gpu.consistency")
                               ? base.getString("gpu.consistency")
                               : "sc");
    else
        cells = verify::litmusMatrix(spec);

    int rc = 0;
    for (const auto &[p, c] : cells)
    {
        bool ok = verify::runLitmusCell(base, spec, p, c);
        std::printf("replay %s/%s: %s\n", p.c_str(), c.c_str(),
                    ok ? "pass" : "FORBIDDEN OUTCOME");
        if (!ok)
            rc = 1;
    }
    return rc;
}

int
run(int argc, char **argv)
{
    bool explore = false;
    bool litmus = false;
    std::string replaySpec;
    std::string protocol;
    std::string outPath;
    unsigned count = 20;
    std::uint64_t seed = 1;
    sim::Config cfg = harness::benchConfig();

    for (int i = 1; i < argc; ++i)
    {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--explore")
            explore = true;
        else if (arg == "--litmus")
            litmus = true;
        else if (arg == "--litmus-replay")
        {
            const char *v = next();
            if (!v)
                return usage();
            replaySpec = v;
        }
        else if (arg == "--count")
        {
            const char *v = next();
            if (!v)
                return usage();
            std::uint64_t n = 0;
            if (!harness::parseWholeNumber(v, UINT_MAX, &n) || n == 0)
                return badValue("--count", v);
            count = static_cast<unsigned>(n);
        }
        else if (arg == "--seed")
        {
            const char *v = next();
            if (!v)
                return usage();
            if (!harness::parseWholeNumber(v, UINT64_MAX, &seed))
                return badValue("--seed", v);
        }
        else if (arg == "--out")
        {
            const char *v = next();
            if (!v)
                return usage();
            outPath = v;
        }
        else if (arg == "--rollover")
        {
            // 8-bit timestamps with a spin boost big enough that one
            // boosted store overflows: the whole epoch-reset protocol
            // (rewind, lazy adoption, normalization) is in scope, and
            // the space still closes (541,108 states).
            cfg.setInt("gtsc.ts_bits", 8);
            cfg.setInt("gtsc.lease", 10);
            cfg.setInt("verify.boosts", 1);
            cfg.setInt("gtsc.spin_ts_boost", 245);
            cfg.setInt("verify.lines", 1);
            cfg.setInt("verify.ops_per_thread", 2);
        }
        else if (arg == "--mutation")
        {
            const char *v = next();
            if (!v)
                return usage();
            cfg.set("verify.mutation", v);
        }
        else if (arg.rfind("protocol=", 0) == 0)
        {
            protocol = arg.substr(std::strlen("protocol="));
        }
        else if (arg.find('=') != std::string::npos)
        {
            cfg.parseOverrides({arg});
        }
        else
        {
            return usage();
        }
    }

    if (explore)
        return runExplore(cfg, outPath);
    if (litmus)
        return runLitmusBatchMode(cfg, seed, count, outPath);
    if (!replaySpec.empty())
        return runReplay(cfg, replaySpec, protocol);
    return usage();
}

} // namespace

int
main(int argc, char **argv)
{
    // Bad input (an out-of-range verify.* knob, a malformed number)
    // surfaces as GTSC_FATAL's exception from config parsing or
    // ModelSim: report it and exit like a usage error, not an abort.
    try
    {
        return run(argc, argv);
    }
    catch (const std::exception &e)
    {
        std::fprintf(stderr, "gtsc_verify: %s\n", e.what());
        return 2;
    }
}
