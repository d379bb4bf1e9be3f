/**
 * @file
 * Temporal Coherence (TC, HPCA 2013) private-cache controller,
 * reimplemented as the paper's comparison baseline (Section VI-A).
 *
 * Every block carries an absolute lease-expiry cycle granted by the
 * L2's globally synchronized counter (= the simulator cycle). A tag
 * match with an expired lease is a coherence miss: the block has
 * self-invalidated and a fresh fill (with data — TC has no data-less
 * renewal) is requested. Stores are write-through and invalidate the
 * local copy; the L2 decides when the store globally performs
 * (TC-Strong stalls it, TC-Weak acks immediately with a GWCT).
 */

#ifndef GTSC_PROTOCOLS_TC_L1_HH_
#define GTSC_PROTOCOLS_TC_L1_HH_

#include <vector>

#include "mem/cache_array.hh"
#include "mem/coherence_probe.hh"
#include "mem/controllers.hh"
#include "mem/mshr.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"
#include "sim/stats.hh"

namespace gtsc::protocols
{

class TcL1 final : public mem::L1Controller
{
  public:
    TcL1(SmId sm, const sim::Config &cfg, sim::StatSet &stats,
         sim::EventQueue &events, mem::CoherenceProbe *probe);

    bool access(const mem::Access &acc, Cycle now) override;
    void receiveResponse(mem::Packet &&pkt, Cycle now) override;
    void tick(Cycle now) override { (void)now; }

    /**
     * tick() is a no-op: lease expiry is checked lazily at access
     * time and completions are response-driven. Under active-set
     * scheduling this controller is therefore never armed — it calls
     * no wake hook, and load/store completions reach the SM through
     * its own callbacks (wake contract, mem/controllers.hh).
     * Lease expiry never moves the reject generation either: it
     * cannot turn a reject into a hit, because a rejected load found
     * no line or an expired one, and time only expires leases.
     */
    Cycle
    nextWorkCycle(Cycle now) const override
    {
        (void)now;
        return kCycleNever;
    }
    void flush(Cycle now) override;
    bool quiescent() const override;
    void attachTracer(obs::Tracer &tracer) override;

  private:
    void completeLoad(const mem::Access &acc, const mem::LineData &data,
                      bool hit, Cycle grant, Cycle now);

    SmId sm_;
    sim::StatSet &stats_;
    sim::EventQueue &events_;
    mem::CoherenceProbe *probe_;

    mem::CacheArray array_;
    mem::Mshr mshr_;
    sim::PooledKeyMap<std::uint64_t, mem::Access> pendingStores_;
    /** Fill-waiter scratch: capacity circulates between this and the
     *  pooled MSHR entries (swap, never free). */
    std::vector<mem::Access> waitersScratch_;

    sim::SlotPool<LoadReply> loadReplies_;

    unsigned numPartitions_;
    Cycle hitLatency_;

    std::uint64_t *hits_;
    std::uint64_t *missCold_;
    std::uint64_t *missExpired_;
    std::uint64_t *merged_;
    std::uint64_t *busRdSent_;
    std::uint64_t *busWrSent_;
    std::uint64_t *tagAccesses_;
    std::uint64_t *dataReads_;
    std::uint64_t *dataWrites_;
    std::uint64_t *rejects_;

    obs::Tracer *trace_ = nullptr;
    std::uint32_t track_ = 0; ///< obs::Tracer::TrackId
};

} // namespace gtsc::protocols

#endif // GTSC_PROTOCOLS_TC_L1_HH_
