/**
 * @file
 * GDDR DRAM channel model.
 *
 * One channel per L2 partition (the GPGPU-Sim memory-partition
 * layout the paper simulates). FCFS service with per-bank open-row
 * tracking: a row hit costs tRowHit, a row miss tRowMiss, and every
 * transfer occupies the data bus for lineBytes / busBytesPerCycle
 * cycles, which bounds per-channel bandwidth under load.
 */

#ifndef GTSC_MEM_DRAM_HH_
#define GTSC_MEM_DRAM_HH_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/line_data.hh"
#include "mem/main_memory.hh"
#include "obs/tracer.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/ring_buffer.hh"
#include "sim/slot_pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gtsc::mem
{

class DramChannel
{
  public:
    using ReadCallback = std::function<void(const LineData &)>;
    /** Re-arm this parked channel (wake contract,
     *  mem/controllers.hh). The L2s push requests directly, so the
     *  channel carries its own hook; both push paths fire it. */
    using WakeFn = std::function<void(Cycle)>;

    DramChannel(const sim::Config &cfg, sim::StatSet &stats,
                sim::EventQueue &events, MainMemory &memory,
                const std::string &name);

    void setWakeHook(WakeFn f) { wake_ = std::move(f); }

    /** Enqueue a line read; cb fires when data returns. */
    void pushRead(Addr line_addr, ReadCallback cb);

    /** Enqueue a (partial) line write-back. */
    void pushWrite(Addr line_addr, const LineData &data,
                   std::uint32_t word_mask);

    /** Advance the channel: start the next request when free. */
    void tick(Cycle now);

    /**
     * Earliest future cycle at which tick() could start a request
     * (horizon contract, mem/controllers.hh). Requests already in
     * service complete through the shared event queue.
     */
    Cycle
    nextWorkCycle(Cycle now) const
    {
        if (queue_.empty())
            return kCycleNever;
        return busBusyUntil_ > now ? busBusyUntil_ : now + 1;
    }

    bool idle() const { return queue_.empty() && pending_ == 0; }
    std::size_t queueDepth() const { return queue_.size(); }

    /**
     * Enable activate/return event tracing. `channel` disambiguates
     * the track name (every channel shares the stat name "dram").
     */
    void attachTracer(obs::Tracer &tracer, unsigned channel);

  private:
    struct Request
    {
        Addr lineAddr;
        bool isWrite;
        LineData data;
        std::uint32_t wordMask;
        ReadCallback cb;
    };

    /** In-service read payloads parked here so the return event
     *  captures only [this, slot] — the 128-byte line plus callback
     *  would otherwise heap-allocate a closure per DRAM read. */
    struct ReadReturn
    {
        Addr lineAddr;
        LineData data;
        ReadCallback cb;
    };

    unsigned bankOf(Addr line_addr) const;
    Addr rowOf(Addr line_addr) const;

    sim::StatSet &stats_;
    sim::EventQueue &events_;
    MainMemory &memory_;
    std::string name_;

    // Counters cached at construction (service-loop hot path).
    std::uint64_t *reads_;
    std::uint64_t *writes_;
    std::uint64_t *rowHits_;
    std::uint64_t *rowMisses_;
    std::uint64_t *frfcfsReorders_;

    Cycle tRowHit_;
    Cycle tRowMiss_;
    Cycle burstCycles_;
    unsigned numBanks_;
    unsigned rowShift_;
    /** FR-FCFS scheduling (dram.scheduler=frfcfs). */
    bool frfcfs_ = false;
    std::size_t schedWindow_ = 16;

    WakeFn wake_;
    sim::RingBuffer<Request> queue_;
    sim::SlotPool<ReadReturn> returns_;
    std::vector<Addr> openRow_;   ///< per-bank open row (kCycleNever=closed)
    Cycle busBusyUntil_ = 0;
    unsigned pending_ = 0;        ///< requests in service (cb not fired)

    obs::Tracer *trace_ = nullptr;
    obs::Tracer::TrackId track_ = 0;
};

} // namespace gtsc::mem

#endif // GTSC_MEM_DRAM_HH_
