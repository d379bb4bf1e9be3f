/**
 * @file
 * "Baseline W/L1": a conventional non-coherent GPU L1 — write-
 * through, write-no-allocate, no invalidations ever. Only correct
 * for workloads that do not need coherence (the paper's second
 * benchmark group, Figure 12 right cluster).
 */

#ifndef GTSC_PROTOCOLS_NONCOH_L1_HH_
#define GTSC_PROTOCOLS_NONCOH_L1_HH_

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

class NonCohL1 final : public mem::L1Controller
{
  public:
    NonCohL1(SmId sm, const sim::Config &cfg, sim::StatSet &stats,
             sim::EventQueue &events, mem::CoherenceProbe *probe);

    bool access(const mem::Access &acc, Cycle now) override;
    void receiveResponse(mem::Packet &&pkt, Cycle now) override;
    void tick(Cycle now) override { (void)now; }

    /** tick() is a no-op: all completions are response-driven, so
     *  under active-set scheduling this controller is never armed
     *  and calls no wake hook (wake contract, mem/controllers.hh). */
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

#endif // GTSC_PROTOCOLS_NONCOH_L1_HH_
