/**
 * @file
 * Snapshottable architectural state of the G-TSC controllers.
 *
 * The verification lab (src/verify) model-checks the real FSMs by
 * DFS over simulator states: it captures a controller's complete
 * protocol-visible state at settled points (event queue empty, all
 * in-flight messages held by the harness), explores one transition,
 * and restores. These structs are that state, exactly — anything a
 * controller consults when deciding a future transition must be
 * here, and anything that is pure diagnostics (stats, LRU stamps,
 * tracer hooks) must not.
 *
 * Capture orders every collection deterministically (sorted by key)
 * so two captures of behaviourally identical states serialize
 * identically.
 */

#ifndef GTSC_CORE_GTSC_STATE_HH_
#define GTSC_CORE_GTSC_STATE_HH_

#include <cstdint>
#include <utility>
#include <vector>

#include "mem/access.hh"
#include "mem/cache_array.hh"
#include "sim/types.hh"

namespace gtsc::core
{

/** One resident cache line (L1 or L2). */
struct VerifyLineState
{
    Addr lineAddr = 0;
    bool dirty = false;
    mem::BlockMeta meta;
    mem::LineData data;
};

/** Complete protocol-visible state of one GtscL1. */
struct L1VerifyState
{
    struct PendingStoreState
    {
        std::uint64_t id = 0;
        mem::Access access;
        Ts baseWts = 0;
        bool hadBlock = false;
    };

    struct MshrEntryState
    {
        Addr lineAddr = 0;
        bool requestSent = false;
        unsigned outstanding = 0;
        bool lockWait = false;
        Ts requestWts = 0;
        std::vector<mem::Access> waiters;
    };

    std::vector<VerifyLineState> lines;   ///< sorted by lineAddr
    std::vector<Ts> warpTs;
    std::uint32_t epoch = 0;
    std::vector<PendingStoreState> pendingStores; ///< sorted by id
    std::vector<std::pair<Addr, std::uint64_t>> storeByLine; ///< sorted
    std::vector<MshrEntryState> mshr;     ///< sorted by lineAddr
    std::vector<mem::Access> replayQueue; ///< in queue order
};

/** Complete protocol-visible state of one GtscL2 partition. */
struct L2VerifyState
{
    std::vector<VerifyLineState> lines; ///< sorted by lineAddr
    Ts memTs = 1;
};

/** Timestamp-domain state. */
struct TsDomainVerifyState
{
    std::uint32_t epoch = 0;
};

} // namespace gtsc::core

#endif // GTSC_CORE_GTSC_STATE_HH_
