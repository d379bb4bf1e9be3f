/**
 * Hot-path equivalence: the data-oriented per-cycle core must be
 * provably behavior-preserving. Every run of the pinned
 * configurations below — across fast_forward off/on and the
 * active-set scheduler on/off (4 combinations) — must reproduce,
 * bit for bit, the artifacts the pre-refactor seed produced: the
 * full stat dump, trace.json, timeline.csv and transcript.txt.
 *
 * The cells are gtsc/rc on bh, cc and the low-occupancy ccp, bfs and
 * ge (where idle-cycle skipping matters), the TC baseline on cc, and
 * gtsc/rc/cc at gtsc.ts_bits=8, which crosses several timestamp
 * resets on this machine and so pins the epoch/rollover path.
 *
 * The small artifacts (stats, timeline) are stored verbatim under
 * tests/integration/goldens/ so a mismatch shows a readable diff;
 * the multi-megabyte ones (trace, transcript) are pinned by size +
 * FNV-1a-64 hash in goldens/MANIFEST.txt.
 *
 * If you intentionally change the timing model, regenerate each cell
 * <name> = <protocol> rc <wl> [knobs] from the table below with
 *
 *   ./build/examples/gtsc-sim run <protocol> rc <wl> [knobs] \
 *     gpu.num_sms=4 gpu.warps_per_sm=4 gpu.num_partitions=2 \
 *     wl.scale=0.5 obs.trace=true obs.sample_interval=200 \
 *     obs.trace_dir=DIR --stats
 *
 * Store everything after the first (summary) line of stdout as
 * goldens/<name>.stats.txt and the .timeline.csv file in DIR as
 * goldens/<name>.timeline.csv, then refresh the four MANIFEST.txt
 * rows of the cell ("<name> <kind> <bytes> <fnv64-hex>" for stats,
 * trace, timeline, transcript), explaining the change in your commit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "harness/runner.hh"

using namespace gtsc;

#ifndef GTSC_GOLDEN_DIR
#error "GTSC_GOLDEN_DIR must point at tests/integration/goldens"
#endif

namespace
{

namespace fs = std::filesystem;

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

std::uint64_t
fnv64(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct GoldenEntry
{
    std::uint64_t size = 0;
    std::uint64_t hash = 0;
};

/** MANIFEST.txt rows: "<cell> <kind> <size> <fnv64-hex>". */
std::map<std::string, GoldenEntry>
loadManifest()
{
    std::map<std::string, GoldenEntry> out;
    std::ifstream in(fs::path(GTSC_GOLDEN_DIR) / "MANIFEST.txt");
    EXPECT_TRUE(in) << "missing goldens/MANIFEST.txt";
    std::string wl, kind, hashHex;
    std::uint64_t size;
    while (in >> wl >> kind >> size >> hashHex) {
        GoldenEntry e;
        e.size = size;
        e.hash = std::stoull(hashHex, nullptr, 16);
        out[wl + "/" + kind] = e;
    }
    return out;
}

/** A pinned configuration; the test parameter is its name. */
struct Cell
{
    const char *name; ///< goldens/<name>.* and MANIFEST.txt key
    const char *protocol;
    const char *workload;
    int tsBits; ///< gtsc.ts_bits override; 0 keeps the default
};

const Cell kCells[] = {
    {"bh", "gtsc", "bh", 0},    {"cc", "gtsc", "cc", 0},
    {"ccp", "gtsc", "ccp", 0},  {"bfs", "gtsc", "bfs", 0},
    {"ge", "gtsc", "ge", 0},    {"tc_cc", "tc", "cc", 0},
    {"cc_ts8", "gtsc", "cc", 8},
};

const Cell &
cellNamed(const std::string &name)
{
    for (const Cell &c : kCells) {
        if (name == c.name)
            return c;
    }
    ADD_FAILURE() << "no cell named " << name;
    return kCells[0];
}

struct Setting
{
    bool fastForward;
    bool activeSet;
};

class HotPathEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(HotPathEquivalence, BitIdenticalToSeed)
{
    const std::string wl = GetParam();
    const Cell &cell = cellNamed(wl);
    const auto manifest = loadManifest();

    const std::string goldStats =
        slurp(fs::path(GTSC_GOLDEN_DIR) / (wl + ".stats.txt"));
    const std::string goldTimeline =
        slurp(fs::path(GTSC_GOLDEN_DIR) / (wl + ".timeline.csv"));

    const Setting kSettings[] = {
        {false, false}, {true, false}, {false, true}, {true, true}};

    for (const Setting &s : kSettings) {
        SCOPED_TRACE(std::string("fast_forward=") +
                     (s.fastForward ? "on" : "off") +
                     " active_set=" + (s.activeSet ? "on" : "off"));

        fs::path dir = fs::temp_directory_path() /
                       ("gtsc_hot_path_eq_" + wl + "_" +
                        std::to_string(s.fastForward) + "_" +
                        std::to_string(s.activeSet));
        fs::remove_all(dir);

        sim::Config cfg;
        cfg.setInt("gpu.num_sms", 4);
        cfg.setInt("gpu.warps_per_sm", 4);
        cfg.setInt("gpu.num_partitions", 2);
        cfg.setDouble("wl.scale", 0.5);
        cfg.setBool("gpu.fast_forward", s.fastForward);
        cfg.setBool("gpu.active_set", s.activeSet);
        if (cell.tsBits != 0)
            cfg.setInt("gtsc.ts_bits", cell.tsBits);
        cfg.setBool("obs.trace", true);
        cfg.setInt("obs.sample_interval", 200);
        cfg.set("obs.trace_dir", dir.string());

        harness::RunResult r =
            harness::runOne(cfg, cell.protocol, "rc", cell.workload);
        // The narrow-timestamp cell exists to cover resets.
        if (cell.tsBits != 0) {
            EXPECT_GT(r.tsResets, 0u);
        }

        // Full stat dump, byte for byte.
        EXPECT_EQ(r.stats.toString(), goldStats);

        std::string trace, timeline, transcript;
        for (const std::string &f : r.obsFiles) {
            if (f.size() > 11 &&
                f.compare(f.size() - 11, 11, ".trace.json") == 0)
                trace = slurp(f);
            else if (f.size() > 13 &&
                     f.compare(f.size() - 13, 13, ".timeline.csv") == 0)
                timeline = slurp(f);
            else if (f.size() > 15 &&
                     f.compare(f.size() - 15, 15,
                               ".transcript.txt") == 0)
                transcript = slurp(f);
        }
        ASSERT_FALSE(trace.empty());
        ASSERT_FALSE(timeline.empty());
        ASSERT_FALSE(transcript.empty());

        EXPECT_EQ(timeline, goldTimeline);

        auto check = [&](const char *kind, const std::string &bytes) {
            auto it = manifest.find(wl + "/" + kind);
            ASSERT_NE(it, manifest.end()) << kind;
            EXPECT_EQ(bytes.size(), it->second.size) << kind;
            EXPECT_EQ(fnv64(bytes), it->second.hash) << kind;
        };
        check("stats", r.stats.toString());
        check("trace", trace);
        check("timeline", timeline);
        check("transcript", transcript);

        fs::remove_all(dir);
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, HotPathEquivalence,
                         ::testing::Values("bh", "cc", "ccp", "bfs",
                                           "ge", "tc_cc", "cc_ts8"),
                         [](const ::testing::TestParamInfo<std::string>
                                &info) { return info.param; });
