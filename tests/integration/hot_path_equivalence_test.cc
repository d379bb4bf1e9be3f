/**
 * Hot-path goldens: the oracle for the main loop and the
 * data-oriented per-cycle core. Every run of the pinned
 * configurations below must reproduce, bit for bit, the artifacts
 * the timing model is known to produce: the full stat dump,
 * trace.json, timeline.csv and transcript.txt. A scheduling or
 * hot-path change that claims to be invisible must leave all of them
 * unchanged.
 *
 * The cells are gtsc/rc on bh, cc and the low-occupancy ccp, bfs and
 * ge (where idle-cycle skipping matters), the TC baseline on cc, and
 * gtsc/rc/cc at gtsc.ts_bits=8, which crosses several timestamp
 * resets on this machine and so pins the epoch/rollover path. The
 * message-passing litmus kernel (fine-grained synchronisation,
 * frequent short stalls) runs under gtsc, tc and noncoh at sc and
 * rc; noncoh reads stale data there by design and spins until its
 * retries give up, a long near-idle run. noncoh/rc/ccp and the
 * no-L1 baseline on cc (the denominator of every Fig. 12 speedup)
 * complete the set. On ccp the loop must also actually jump over
 * idle cycles, or the skipping path would go unexercised.
 *
 * Six more cells cover each way an L1 rejects an access, since the
 * SM parks on a retry the L1 is known to reject again (DESIGN.md §7):
 * MSHR-full rejects under the rr and oldest schedulers (cc_rr,
 * cc_oldest, tc_cc_oldest) and in forward-all mode (cc_fwdall), where
 * fills land without freeing a slot; write-buffer-full rejects
 * (dlp_wb2); and MSHR-full rejects next to TSO store-buffer drains
 * (vpr_tso_mshr2).
 *
 * cc_mesh runs cc on the 2D mesh (noc.topology=mesh), whose packets
 * wait on a busy ejection port and re-wake the network every cycle
 * until it frees; its stats carry the mesh-only noc.*.hops lines.
 *
 * The small artifacts (stats, timeline) are stored verbatim under
 * tests/integration/goldens/ so a mismatch shows a readable diff;
 * the multi-megabyte ones (trace, transcript) are pinned by size +
 * FNV-1a-64 hash in goldens/MANIFEST.txt.
 *
 * If you intentionally change the timing model, regenerate each cell
 * <name> = <protocol> <consistency> <wl> [knobs] from the table
 * below with
 *
 *   ./build/examples/gtsc-sim run <protocol> <consistency> <wl> [knobs] \
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
#include <vector>

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
    const char *consistency;
    const char *workload;
    /** Knob overrides ("key=value"), applied after the machine's. */
    std::vector<const char *> knobs;
    /** Counter the cell exists to exercise (must end non-zero). */
    const char *exercises = nullptr;
};

const Cell kCells[] = {
    {"bh", "gtsc", "rc", "bh", {}},
    {"cc", "gtsc", "rc", "cc", {}},
    {"ccp", "gtsc", "rc", "ccp", {}},
    {"bfs", "gtsc", "rc", "bfs", {}},
    {"ge", "gtsc", "rc", "ge", {}},
    {"tc_cc", "tc", "rc", "cc", {}},
    {"cc_ts8", "gtsc", "rc", "cc", {"gtsc.ts_bits=8"}, "gtsc.ts_resets"},
    {"mp_sc", "gtsc", "sc", "mp", {}},
    {"mp", "gtsc", "rc", "mp", {}},
    {"tc_mp_sc", "tc", "sc", "mp", {}},
    {"tc_mp", "tc", "rc", "mp", {}},
    {"noncoh_mp_sc", "noncoh", "sc", "mp", {}},
    {"noncoh_mp", "noncoh", "rc", "mp", {}},
    {"noncoh_ccp", "noncoh", "rc", "ccp", {}},
    {"nol1_cc", "nol1", "rc", "cc", {}},
    {"cc_rr", "gtsc", "rc", "cc", {"gpu.scheduler=rr"},
     "l1.rejects_mshr_full"},
    {"cc_oldest", "gtsc", "rc", "cc", {"gpu.scheduler=oldest"},
     "l1.rejects_mshr_full"},
    {"cc_fwdall", "gtsc", "rc", "cc", {"gtsc.combine_mshr=false"},
     "l1.rejects_mshr_full"},
    {"dlp_wb2", "gtsc", "rc", "dlp",
     {"gtsc.update_visibility=writebuffer",
      "gtsc.write_buffer_entries=2"},
     "l1.wb_full_rejects"},
    {"vpr_tso_mshr2", "gtsc", "tso", "vpr", {"l1.mshr_entries=2"},
     "l1.rejects_mshr_full"},
    {"tc_cc_oldest", "tc", "sc", "cc", {"gpu.scheduler=oldest"},
     "l1.rejects_mshr_full"},
    {"cc_mesh", "gtsc", "rc", "cc", {"noc.topology=mesh"}},
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

    fs::path dir = fs::temp_directory_path() / ("gtsc_hot_path_eq_" + wl);
    fs::remove_all(dir);

    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 4);
    cfg.setInt("gpu.warps_per_sm", 4);
    cfg.setInt("gpu.num_partitions", 2);
    cfg.setDouble("wl.scale", 0.5);
    for (const char *knob : cell.knobs)
        ASSERT_TRUE(cfg.parseOverride(knob)) << knob;
    cfg.setBool("obs.trace", true);
    cfg.setInt("obs.sample_interval", 200);
    cfg.set("obs.trace_dir", dir.string());

    harness::RunResult r = harness::runOne(cfg, cell.protocol,
                                           cell.consistency, cell.workload);
    // The narrow-timestamp cell exists to cover resets, each reject
    // cell the reject path it is named for.
    if (cell.exercises) {
        EXPECT_GT(r.stats.get(cell.exercises), 0u) << cell.exercises;
    }
    // Memory-bound ccp has long stretches where every warp waits on
    // DRAM: the main loop must skip some cycles there, and not all.
    if (wl == "ccp") {
        EXPECT_GT(r.fastForwarded, 0u);
        EXPECT_LT(r.fastForwarded, r.cycles);
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
                 f.compare(f.size() - 15, 15, ".transcript.txt") == 0)
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

INSTANTIATE_TEST_SUITE_P(Workloads, HotPathEquivalence,
                         ::testing::Values("bh", "cc", "ccp", "bfs",
                                           "ge", "tc_cc", "cc_ts8",
                                           "mp_sc", "mp", "tc_mp_sc",
                                           "tc_mp", "noncoh_mp_sc",
                                           "noncoh_mp", "noncoh_ccp",
                                           "nol1_cc", "cc_rr",
                                           "cc_oldest", "cc_fwdall",
                                           "dlp_wb2", "vpr_tso_mshr2",
                                           "tc_cc_oldest", "cc_mesh"),
                         [](const ::testing::TestParamInfo<std::string>
                                &info) { return info.param; });
