/**
 * @file
 * 2D mesh interconnect with XY dimension-order routing.
 *
 * SM nodes and L2-partition nodes are placed on one grid; a packet
 * serializes over every link along its X-then-Y path (per-link
 * bandwidth `noc.bytes_per_cycle`, per-hop latency
 * `noc.mesh_hop_latency`). Contention is modeled per link as
 * busy-until serialization (no virtual-channel buffering), which
 * captures the first-order distance and hotspot effects the
 * topology ablation looks at.
 */

#ifndef GTSC_NOC_MESH_HH_
#define GTSC_NOC_MESH_HH_

#include <functional>
#include <queue>
#include <vector>

#include "noc/network.hh"
#include "sim/slot_pool.hh"

namespace gtsc::noc
{

class Mesh final : public Network
{
  public:
    /**
     * @param src_are_sms request direction: sources are SM nodes
     *        (placed first on the grid), destinations partitions.
     *        The response network passes false and the placement
     *        mirrors, so both directions use the same coordinates.
     */
    Mesh(unsigned num_src, unsigned num_dst, bool src_are_sms,
         const sim::Config &cfg, sim::StatSet &stats,
         const std::string &name);

    void setDeliver(DeliverFn fn) override { deliver_ = std::move(fn); }
    void inject(unsigned src, unsigned dst, mem::Packet &&pkt,
                Cycle now) override;
    void tick(Cycle now) override;
    Cycle nextWorkCycle(Cycle now) const override;

    bool quiescent() const override { return heap_.empty(); }

    /** Grid geometry (tests). */
    unsigned gridWidth() const { return width_; }
    unsigned hops(unsigned src, unsigned dst) const;

    void attachTracer(obs::Tracer &tracer) override;
    void attachTranscript(obs::Transcript &transcript,
                          bool response) override;

  private:
    /**
     * Heap entry: packet-pool slot and destination plus the ordering
     * key. A packet whose ejection port is busy is re-queued at the
     * next cycle with its seq, so it competes with that cycle's
     * arrivals purely on injection order.
     */
    struct InFlight
    {
        Cycle arrive;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t dst;

        bool
        operator>(const InFlight &o) const
        {
            return arrive != o.arrive ? arrive > o.arrive : seq > o.seq;
        }
    };

    /** Grid node id of a source/destination port. */
    unsigned srcNode(unsigned src) const;
    unsigned dstNode(unsigned dst) const;

    Cycle txCycles(std::uint32_t bytes) const;

    /**
     * Dense id of the directed link between adjacent grid nodes:
     * four outgoing links per node (E, W, S, N), so the busy-until
     * table is a flat array indexed without hashing on the per-hop
     * routing path.
     */
    unsigned
    linkIndex(unsigned from, unsigned to) const
    {
        unsigned dir;
        if (to == from + 1)
            dir = 0; // east
        else if (to + 1 == from)
            dir = 1; // west
        else if (to == from + width_)
            dir = 2; // south
        else
            dir = 3; // north
        return from * 4 + dir;
    }

    sim::StatSet &stats_;
    std::string name_;
    unsigned numSrc_;
    unsigned numDst_;
    bool srcAreSms_;
    unsigned width_;
    unsigned height_;
    std::uint64_t bytesPerCycle_;
    Cycle hopLatency_;

    /** Busy-until cycle per directed link, indexed by linkIndex(). */
    std::vector<Cycle> linkFree_;
    /** In-flight packets, earliest (arrive, seq) on top. The arrival
     *  cycle is final at inject (route and link serialization are
     *  resolved there). */
    std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>>
        heap_;
    /** In-flight packet payloads, indexed by InFlight::slot. */
    sim::SlotPool<mem::Packet> pool_;
    std::vector<Cycle> dstFree_;
    DeliverFn deliver_;
    std::uint64_t seq_ = 0;

    std::uint64_t *bytesTotal_;
    std::uint64_t *packetsTotal_;
    /** Per-MsgType byte/packet counters, cached at construction so
     * the inject hot path never rebuilds stat-name strings. */
    std::uint64_t *bytesByType_[mem::kNumMsgTypes];
    std::uint64_t *packetsByType_[mem::kNumMsgTypes];
    sim::Distribution *latency_;
    sim::Distribution *hops_;

    obs::Tracer *trace_ = nullptr;
    std::uint32_t track_ = 0; ///< obs::Tracer::TrackId
    obs::Transcript *transcript_ = nullptr;
    bool transcriptResponse_ = false;
};

} // namespace gtsc::noc

#endif // GTSC_NOC_MESH_HH_
