/**
 * @file
 * G-TSC private (L1) cache controller.
 *
 * Implements the L1 side of the protocol (Figures 1a, 2, 3, 7, 8):
 *  - load hit iff tag match and warp_ts <= rts; hits advance the
 *    warp's timestamp to max(warp_ts, wts);
 *  - misses merge in the MSHR; an expired-lease miss sends a renewal
 *    BusRd carrying the local wts (Section V-B request combining, or
 *    forward-all when gtsc.combine_mshr=false);
 *  - stores are write-through / write-no-allocate; a store hit makes
 *    the line inaccessible until the BusWrAck arrives (update
 *    visibility, Section V-A option 1) or keeps the old copy
 *    readable by other warps (option 2, gtsc.update_visibility);
 *  - timestamp epochs: on an L2 overflow reset the L1 flushes and
 *    rewinds its warp timestamps (Section V-D);
 *  - spin retries advance warp_ts so polling warps renew instead of
 *    re-reading a stale local copy forever.
 */

#ifndef GTSC_CORE_GTSC_L1_HH_
#define GTSC_CORE_GTSC_L1_HH_

#include <vector>

#include "core/gtsc_state.hh"
#include "core/ts_domain.hh"
#include "mem/cache_array.hh"
#include "mem/coherence_probe.hh"
#include "mem/controllers.hh"
#include "mem/mshr.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/ring_buffer.hh"
#include "sim/slot_pool.hh"
#include "sim/stats.hh"

namespace gtsc::core
{

class GtscL1 final : public mem::L1Controller
{
  public:
    GtscL1(SmId sm, const sim::Config &cfg, sim::StatSet &stats,
           sim::EventQueue &events, TsDomain &domain,
           mem::CoherenceProbe *probe);

    bool access(const mem::Access &acc, Cycle now) override;
    void receiveResponse(mem::Packet &&pkt, Cycle now) override;
    /** Replays re-enter access() in order; stop on structural
     *  reject (each accepted replay moves the reject generation).
     *  Inline: the per-cycle call reduces to one empty-deque check
     *  on the (overwhelmingly common) replay-free cycles. */
    void
    tick(Cycle now) override
    {
        while (!replayQueue_.empty()) {
            if (!access(replayQueue_.front(), now))
                break;
            replayQueue_.pop_front();
        }
    }

    /** Pending replays retry (and count stats) every cycle; all
     *  other work arrives through responses or the event queue. */
    Cycle
    nextWorkCycle(Cycle now) const override
    {
        return replayQueue_.empty() ? kCycleNever : now + 1;
    }
    void flush(Cycle now) override;
    void noteSpinRetry(WarpId warp, Addr line_addr) override;
    bool quiescent() const override;
    void attachTracer(obs::Tracer &tracer) override;

    /** Current timestamp of a warp (tests/diagnostics). */
    Ts warpTs(WarpId w) const { return warpTs_[w]; }

    /**
     * Snapshot the complete protocol-visible state into `s`
     * (verification lab), reusing its vectors' capacity. Only
     * meaningful at settled points: no event-queue callbacks of this
     * controller may be pending (in-flight load completions hold
     * state outside these structs).
     */
    void captureVerifyState(L1VerifyState &s);

    /**
     * Restore a captured snapshot. Requires that capacity evictions
     * cannot occur for the restored line set (enough ways per set);
     * LRU stamps are not part of the snapshot.
     */
    void restoreVerifyState(const L1VerifyState &s);

    /**
     * Force-drop a resident clean copy (model-checking action: L1 is
     * write-through, so dropping a line is always legal). Refuses
     * lines owned by an in-flight store — matching the evictable
     * predicate the fill path uses. Returns true if a line was
     * dropped.
     */
    bool verifyEvictLine(Addr line_addr);

  private:
    struct PendingStore
    {
        mem::Access access;
        /** wts of the local version the store merged into. */
        Ts baseWts = 0;
        /** The line was resident when the store was issued. */
        bool hadBlock = false;
    };

    /** Flush + rewind if the domain epoch moved (reset protocol). */
    void adoptEpoch();

    /**
     * Serve a load hit from `blk` (schedules completion).
     * @param forward buffered store whose words are forwarded over
     *        the block data (write-buffer mode, writer warp only);
     *        forwarded words are private register traffic and skip
     *        the coherence probe.
     */
    void completeLoadHit(const mem::Access &acc, const mem::CacheBlock &blk,
                         Cycle now, const mem::Access *forward = nullptr);

    /** Deliver a load from packet data (fill bypass path). */
    void completeLoadFromPacket(const mem::Access &acc,
                                const mem::Packet &pkt, Cycle now);

    bool handleLoad(const mem::Access &acc, mem::CacheBlock *blk,
                    Cycle now);
    bool handleStore(const mem::Access &acc, mem::CacheBlock *blk,
                     Cycle now);

    /** Park an access behind an in-flight store to its line. */
    bool parkBehindStore(const mem::Access &acc);

    void sendBusRd(Addr line, Ts req_wts, Ts warp_ts, WarpId warp);
    void onFill(mem::Packet &pkt, Cycle now);
    void onRenew(mem::Packet &pkt, Cycle now);
    void onWrAck(mem::Packet &pkt, Cycle now);

    /**
     * A response for the entry's line arrived: complete covered
     * waiters (from the block, or from `pkt` on the bypass path),
     * track outstanding responses, and release leftovers for a
     * renewal when the last response has landed.
     */
    void resolveEntry(mem::MshrEntry *entry, mem::CacheBlock *blk,
                      const mem::Packet *pkt, Cycle now);

    /** Move `waiters` into the replay queue and clear it (the
     *  vector's buffer stays with the caller for reuse). */
    void queueReplay(std::vector<mem::Access> &waiters);

    SmId sm_;
    sim::StatSet &stats_;
    sim::EventQueue &events_;
    TsDomain &domain_;
    mem::CoherenceProbe *probe_;

    mem::CacheArray array_;
    mem::Mshr mshr_;
    std::vector<Ts> warpTs_;
    std::uint32_t epoch_ = 0;

    /** In-flight stores keyed by request id. */
    sim::PooledKeyMap<std::uint64_t, PendingStore> pendingStores_;
    /** Lines with an in-flight store (value = request id, writer). */
    sim::PooledKeyMap<Addr, std::uint64_t> storeByLine_;
    /** Accesses waiting to re-enter access() (fills, unlocks). */
    sim::RingBuffer<mem::Access> replayQueue_;
    /** resolveEntry / onWrAck waiter scratch: capacity circulates
     *  between this and the pooled MSHR entries (swap, never free). */
    std::vector<mem::Access> resolveScratch_;

    sim::SlotPool<LoadReply> loadReplies_;

    /**
     * Section V-A update-visibility designs:
     *  - Block: option 1, all accesses to the line wait for the ack;
     *  - DualCopy: option 2, other warps read the old copy, the
     *    writer waits;
     *  - WriteBuffer: the design the paper rejects on area grounds
     *    (kept as an ablation): nobody waits — other warps read the
     *    old copy and the writer's own loads forward from the
     *    buffered store; capacity-limited by
     *    gtsc.write_buffer_entries.
     */
    enum class Visibility : std::uint8_t
    {
        Block,
        DualCopy,
        WriteBuffer,
    };

    unsigned numPartitions_;
    Cycle hitLatency_;
    bool combine_;
    Visibility visibility_;
    std::size_t writeBufferEntries_;
    Ts spinBoost_;

    // cached stats
    std::uint64_t *hits_;
    std::uint64_t *missCold_;
    std::uint64_t *missExpired_;
    std::uint64_t *merged_;
    std::uint64_t *renewalsSent_;
    std::uint64_t *busRdSent_;
    std::uint64_t *busWrSent_;
    std::uint64_t *fillBypass_;
    std::uint64_t *lockParks_;
    std::uint64_t *tagAccesses_;
    std::uint64_t *dataReads_;
    std::uint64_t *dataWrites_;
    std::uint64_t *rejects_;
    std::uint64_t *staleResponses_;
    std::uint64_t *wbFullRejects_;
    std::uint64_t *replayHits_;
    std::uint64_t *wbForwards_;
    std::uint64_t *storeBaseStale_;

    obs::Tracer *trace_ = nullptr;
    std::uint32_t track_ = 0; ///< obs::Tracer::TrackId
};

} // namespace gtsc::core

#endif // GTSC_CORE_GTSC_L1_HH_
