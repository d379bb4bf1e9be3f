/**
 * @file
 * The BL baseline: private caches disabled. Every access is sent
 * straight to the home L2 partition over the NoC — no L1 tags, no
 * L1 MSHRs, no request merging (Section VI-A: "G-TSC implements BL
 * by essentially sending all requests directly to the L2 cache").
 */

#ifndef GTSC_PROTOCOLS_NO_L1_HH_
#define GTSC_PROTOCOLS_NO_L1_HH_

#include "mem/coherence_probe.hh"
#include "mem/controllers.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"
#include "sim/stats.hh"

namespace gtsc::protocols
{

class NoL1 final : public mem::L1Controller
{
  public:
    NoL1(SmId sm, const sim::Config &cfg, sim::StatSet &stats,
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

  private:
    SmId sm_;
    sim::StatSet &stats_;
    sim::EventQueue &events_;
    mem::CoherenceProbe *probe_;

    sim::PooledKeyMap<std::uint64_t, mem::Access> pendingLoads_;
    sim::PooledKeyMap<std::uint64_t, mem::Access> pendingStores_;
    sim::SlotPool<LoadReply> loadReplies_;

    unsigned numPartitions_;
    std::size_t maxPending_;

    std::uint64_t *reads_;
    std::uint64_t *writes_;
    std::uint64_t *rejects_;
};

} // namespace gtsc::protocols

#endif // GTSC_PROTOCOLS_NO_L1_HH_
