/**
 * @file
 * Interconnection network between SMs and L2 partitions.
 *
 * Two independent Crossbar instances form the request and response
 * networks (the GPGPU-Sim layout). The model captures the two
 * effects the paper's results depend on: finite per-port bandwidth
 * (packets serialize at their injection and ejection links, so
 * latency grows with load) and per-message wire size (so protocol
 * payload differences show up as traffic and congestion).
 */

#ifndef GTSC_NOC_CROSSBAR_HH_
#define GTSC_NOC_CROSSBAR_HH_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/packet.hh"
#include "noc/arrival_ring.hh"
#include "noc/network.hh"
#include "sim/bitmask.hh"
#include "sim/config.hh"
#include "sim/ring_buffer.hh"
#include "sim/slot_pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gtsc::noc
{

class Crossbar final : public Network
{
  public:
    Crossbar(unsigned num_src, unsigned num_dst, const sim::Config &cfg,
             sim::StatSet &stats, const std::string &name);

    void setDeliver(DeliverFn fn) override { deliver_ = std::move(fn); }

    /**
     * Inject a packet at source port `src` bound for `dst`.
     * pkt.sizeBytes must be set; pkt.injectedAt is stamped here.
     */
    void inject(unsigned src, unsigned dst, mem::Packet &&pkt,
                Cycle now) override;

    /**
     * Eject packets whose arrival time has been reached. O(1) on
     * cycles where nothing can possibly eject: a conservative
     * earliest-ejection bound is min-merged on inject and tightened
     * to the exact value by each full sweep, so the per-port scan
     * only runs on cycles that can deliver.
     */
    void
    tick(Cycle now) override
    {
        if (inFlight_ == 0 || now < earliestEject_)
            return;
        tickSweep(now);
    }

    /**
     * Conservative horizon: never later than the true next ejection
     * (a fast-forward jump landing early finds tick() a no-op and
     * the bound re-tightened).
     */
    Cycle
    nextWorkCycle(Cycle now) const override
    {
        if (inFlight_ == 0)
            return kCycleNever;
        return earliestEject_ > now ? earliestEject_ : now + 1;
    }

    bool quiescent() const override { return inFlight_ == 0; }

    void attachTracer(obs::Tracer &tracer) override;
    void attachTranscript(obs::Transcript &transcript,
                          bool response) override;

  private:
    /**
     * Ring entry: a slot index into the packet pool plus the
     * destination port. No ordering key is stored — (arrive, inject
     * order) is preserved by the ring's bucket structure, so the old
     * per-dst priority queues (the single hottest site in profiles
     * before PR 8, and still a log-factor sift per packet after the
     * slot-pool split) collapse into flat appends and pops.
     */
    struct InFlight
    {
        std::uint32_t slot;
        std::uint32_t dst;
    };

    Cycle txCycles(std::uint32_t bytes) const;

    /** Full drain-and-eject sweep; recomputes earliestEject_. */
    void tickSweep(Cycle now);

    sim::StatSet &stats_;
    std::string name_;
    unsigned numSrc_;
    unsigned numDst_;
    std::uint64_t bytesPerCycle_;
    Cycle hopLatency_;

    std::vector<Cycle> srcFree_;
    std::vector<Cycle> dstFree_;
    /**
     * In-flight packets that have not yet crossed the fabric, dense
     * ring indexed by arrival cycle. A tick pops exactly the due
     * entries in (arrive, inject) order and appends them to their
     * port FIFO; packets never move until they are due.
     */
    ArrivalRing<InFlight> ring_;
    /** Arrived packets awaiting a free ejection link, per port, in
     *  exact delivery order by construction. */
    std::vector<sim::RingBuffer<std::uint32_t>> portFifo_;
    /** Ports whose FIFO is non-empty (the ejection pass walks only
     *  set bits, in ascending port order like the old sweep). */
    sim::BitMask pending_;
    /** In-flight packet payloads, indexed by InFlight::slot. */
    sim::SlotPool<mem::Packet> pool_;
    DeliverFn deliver_;
    std::uint64_t inFlight_ = 0;
    /**
     * Lower bound on the earliest cycle any queued packet can eject
     * (kCycleNever when idle). Inject lowers it to the packet's
     * fabric arrival (which ignores ejection-link serialization, so
     * it is conservative); tickSweep() recomputes it exactly from
     * the ring's next arrival and the pending ports' link windows.
     */
    Cycle earliestEject_ = kCycleNever;

    // StatSet counters, cached at construction (stable map-node
    // addresses)
    std::uint64_t *bytesTotal_;
    std::uint64_t *packetsTotal_;
    /** Per-MsgType byte/packet counters, cached at construction so
     * the inject hot path never rebuilds stat-name strings. */
    std::uint64_t *bytesByType_[mem::kNumMsgTypes];
    std::uint64_t *packetsByType_[mem::kNumMsgTypes];
    sim::Distribution *latency_;

    obs::Tracer *trace_ = nullptr;
    std::uint32_t track_ = 0; ///< obs::Tracer::TrackId
    obs::Transcript *transcript_ = nullptr;
    bool transcriptResponse_ = false;
};

} // namespace gtsc::noc

#endif // GTSC_NOC_CROSSBAR_HH_
