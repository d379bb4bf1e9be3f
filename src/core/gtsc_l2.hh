/**
 * @file
 * G-TSC shared (L2) cache partition controller.
 *
 * Implements the L2 side of the protocol (Figures 1b, 4, 5, 6):
 *  - reads extend the block lease to warp_ts + lease; a matching wts
 *    yields a data-less renewal (BusRnw), otherwise a BusFill;
 *  - writes never stall: the new wts is scheduled logically after
 *    every outstanding lease (wts' = max(rts + 1, warp_ts));
 *  - the cache is non-inclusive (Section V-C): evictions only fold
 *    the block's rts into the per-partition mem_ts;
 *  - DRAM fills take wts = mem_ts, rts = mem_ts + lease;
 *  - timestamp overflow triggers the domain-wide reset (Section V-D).
 */

#ifndef GTSC_CORE_GTSC_L2_HH_
#define GTSC_CORE_GTSC_L2_HH_

#include <vector>

#include "core/gtsc_state.hh"
#include "core/ts_domain.hh"
#include "mem/cache_array.hh"
#include "mem/coherence_probe.hh"
#include "mem/controllers.hh"
#include "mem/dram.hh"
#include "mem/main_memory.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/ring_buffer.hh"
#include "sim/slot_pool.hh"
#include "sim/stats.hh"

namespace gtsc::core
{

class GtscL2 final : public mem::L2Controller
{
  public:
    GtscL2(PartitionId part, const sim::Config &cfg, sim::StatSet &stats,
           sim::EventQueue &events, mem::DramChannel &dram,
           mem::MainMemory &memory, TsDomain &domain,
           mem::CoherenceProbe *probe);

    void receiveRequest(mem::Packet &&pkt, Cycle now) override;
    /** Service-queue pump; O(1) when the queue is empty. */
    void
    tick(Cycle now) override
    {
        if (!queue_.empty())
            tickQueue(now);
    }

    /** A non-empty service queue processes (and accrues occupancy
     *  stats) every cycle; misses wake via DRAM events. */
    Cycle
    nextWorkCycle(Cycle now) const override
    {
        return queue_.empty() ? kCycleNever : now + 1;
    }
    void flushAll(Cycle now) override;
    bool quiescent() const override;
    void attachTracer(obs::Tracer &tracer) override;

    Ts memTs() const { return memTs_; }

    /**
     * Snapshot the complete protocol-visible state (verification
     * lab). Requires a fully settled controller: service queue and
     * miss table empty (the harness delivers requests one at a time
     * and drains them before snapshotting).
     */
    L2VerifyState captureVerifyState();

    /** Restore a captured snapshot (see captureVerifyState). */
    void restoreVerifyState(const L2VerifyState &s);

    /**
     * Force-evict a resident line (model-checking action): folds the
     * lease into mem_ts and writes back if dirty, exactly like a
     * capacity eviction. Returns true if a line was evicted.
     */
    bool verifyEvictLine(Addr line_addr);

  private:
    struct MissEntry
    {
        std::vector<mem::Packet> waiters;
    };

    /** Rewind every timestamp in this bank (reset listener). */
    void rewindTimestamps();

    /** Process one request against a resident block. */
    void serveHit(mem::CacheBlock &blk, mem::Packet &pkt, Cycle now);
    void serveRead(mem::CacheBlock &blk, mem::Packet &pkt, Cycle now);
    void serveWrite(mem::CacheBlock &blk, mem::Packet &pkt, Cycle now);

    /** True if consumed; false = structural stall (MSHR full). */
    void tickQueue(Cycle now);
    bool process(mem::Packet &pkt, Cycle now);

    void onDramFill(Addr line, const mem::LineData &data, Cycle now);
    void evict(mem::CacheBlock &blk);

    void respond(mem::Packet &&resp, Cycle now);

    /** Clamp requests that predate the current epoch (Section V-D). */
    void normalizeEpoch(mem::Packet &pkt);

    PartitionId part_;
    sim::StatSet &stats_;
    sim::EventQueue &events_;
    mem::DramChannel &dram_;
    mem::MainMemory &memory_;
    TsDomain &domain_;
    mem::CoherenceProbe *probe_;

    mem::CacheArray array_;
    Ts memTs_ = 1;
    sim::RingBuffer<mem::Packet> queue_;
    sim::PooledKeyMap<Addr, MissEntry> misses_;
    /** Waiter replay scratch: capacity circulates between this and
     *  the pooled miss entries (swap, never free). */
    std::vector<mem::Packet> waitersScratch_;
    /** Response packets parked here so the completion event captures
     *  only [this, slot] (no per-response closure allocation). */
    sim::SlotPool<mem::Packet> respPool_;

    unsigned ports_;
    Cycle accessLatency_;
    std::size_t mshrCapacity_;
    /** Adaptive lease prediction (gtsc.adaptive_lease). */
    bool adaptiveLease_;
    Ts maxLease_;

    /**
     * Test-only FSM mutations (verify.mutation) the verification lab
     * uses to prove it catches protocol bugs:
     *  - "write_ignores_lease": writes are ordered after the current
     *    version instead of after every outstanding lease
     *    (wts' = max(wts+1, warp_ts)), breaking write serialization;
     *  - "renew_mismatched_wts": renewal requests are granted without
     *    the wts match, extending leases on stale copies.
     * Empty (the default) is the faithful protocol.
     */
    bool mutWriteIgnoresLease_ = false;
    bool mutRenewMismatch_ = false;

    std::uint64_t *accesses_;
    std::uint64_t *hits_;
    std::uint64_t *missesStat_;
    std::uint64_t *renewals_;
    std::uint64_t *fillsSent_;
    std::uint64_t *writes_;
    std::uint64_t *evictions_;
    std::uint64_t *writebacks_;
    std::uint64_t *stallMshrFull_;
    std::uint64_t *queueCycles_;
    std::uint64_t *adaptiveExtensions_;
    sim::Distribution *serviceLatency_;

    obs::Tracer *trace_ = nullptr;
    std::uint32_t track_ = 0; ///< obs::Tracer::TrackId
};

} // namespace gtsc::core

#endif // GTSC_CORE_GTSC_L2_HH_
