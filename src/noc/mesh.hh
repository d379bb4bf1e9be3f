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

#include <vector>

#include "noc/arrival_ring.hh"
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

    bool quiescent() const override { return inFlight_ == 0; }

    std::uint64_t
    totalBytes() const override
    {
        return *bytesTotal_ + win_.bytes;
    }

    void flushStatWindow() override;

    /** Grid geometry (tests). */
    unsigned gridWidth() const { return width_; }
    unsigned hops(unsigned src, unsigned dst) const;

    void attachTracer(obs::Tracer &tracer) override;
    void attachTranscript(obs::Transcript &transcript,
                          bool response) override;

  private:
    /**
     * Ring/waiting entry: packet-pool slot plus its ordering key.
     * Unlike the crossbar, the sequence number is kept: a packet
     * deferred by a busy ejection port must merge with newly due
     * arrivals in global injection order (the old priority queue's
     * (arrive, seq) order, where deferral rewrote arrive to the next
     * cycle — so same-cycle candidates compete purely on seq).
     */
    struct InFlight
    {
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t dst;
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
    /** Not-yet-arrived packets, dense ring indexed by the arrival
     *  cycle finalized at inject (route and link serialization are
     *  resolved there). Bucket order is injection order, so a drain
     *  yields candidates already seq-sorted per cycle. */
    ArrivalRing<InFlight> ring_;
    /** Arrived packets deferred by a busy ejection port, seq-sorted.
     *  While non-empty the horizon pins to now+1, exactly like the
     *  old re-queue at arrive = now+1. */
    std::vector<InFlight> waiting_;
    /** Next tick's waiting_ (swap buffers; capacity persists). */
    std::vector<InFlight> nextWaiting_;
    /** Per-tick scratch for newly due arrivals (capacity persists). */
    std::vector<InFlight> dueBuf_;
    /** In-flight packet payloads, indexed by InFlight::slot. */
    sim::SlotPool<mem::Packet> pool_;
    std::vector<Cycle> dstFree_;
    DeliverFn deliver_;
    std::uint64_t seq_ = 0;
    std::uint64_t inFlight_ = 0;

    /**
     * Windowed counter block (same batching as the crossbar's):
     * inject accumulates bytes and per-type tallies here and
     * flushStatWindow() folds them into the StatSet map nodes. The
     * total packet counter stays live — the main loop's progress
     * token reads it every simulated cycle.
     */
    struct StatWindow
    {
        std::uint64_t bytes = 0;
        std::uint64_t bytesByType[mem::kNumMsgTypes] = {};
        std::uint64_t packetsByType[mem::kNumMsgTypes] = {};
    };
    StatWindow win_;

    std::uint64_t *bytesTotal_;
    std::uint64_t *packetsTotal_; ///< live (progress token), not windowed
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
