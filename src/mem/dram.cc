#include "mem/dram.hh"

#include "sim/log.hh"

namespace gtsc::mem
{

DramChannel::DramChannel(const sim::Config &cfg, sim::StatSet &stats,
                         sim::EventQueue &events, MainMemory &memory,
                         const std::string &name)
    : stats_(stats), events_(events), memory_(memory), name_(name)
{
    reads_ = &stats_.counter(name_ + ".reads");
    writes_ = &stats_.counter(name_ + ".writes");
    rowHits_ = &stats_.counter(name_ + ".row_hits");
    rowMisses_ = &stats_.counter(name_ + ".row_misses");
    frfcfsReorders_ = &stats_.counter(name_ + ".frfcfs_reorders");
    tRowHit_ = cfg.getUint("dram.t_row_hit");
    tRowMiss_ = cfg.getUint("dram.t_row_miss");
    numBanks_ = static_cast<unsigned>(cfg.getUint("dram.banks"));
    std::string sched = cfg.getString("dram.scheduler");
    if (sched == "frfcfs")
        frfcfs_ = true;
    else if (sched != "fcfs")
        GTSC_FATAL("dram.scheduler must be fcfs|frfcfs, got '", sched,
                   "'");
    schedWindow_ = cfg.getUint("dram.sched_window");
    std::uint64_t bus_bw = cfg.getUint("dram.bus_bytes_per_cycle");
    std::uint64_t row_bytes = cfg.getUint("dram.row_bytes");
    if (bus_bw == 0 || numBanks_ == 0)
        GTSC_FATAL("dram.bus_bytes_per_cycle and dram.banks must be > 0");
    burstCycles_ = (kLineBytes + bus_bw - 1) / bus_bw;
    rowShift_ = 0;
    while ((std::uint64_t{1} << rowShift_) < row_bytes)
        ++rowShift_;
    openRow_.assign(numBanks_, kCycleNever);
}

void
DramChannel::attachTracer(obs::Tracer &tracer, unsigned channel)
{
    trace_ = &tracer;
    track_ = tracer.track(name_ + std::to_string(channel));
}

unsigned
DramChannel::bankOf(Addr line_addr) const
{
    // Banks interleave at row granularity so consecutive lines in a
    // row share the open-row benefit.
    return static_cast<unsigned>(line_addr >> rowShift_) % numBanks_;
}

Addr
DramChannel::rowOf(Addr line_addr) const
{
    return line_addr >> rowShift_;
}

void
DramChannel::pushRead(Addr line_addr, ReadCallback cb)
{
    queue_.push_back(Request{line_addr, false, LineData{}, 0,
                             std::move(cb)});
    ++(*reads_);
    // Earliest cycle the new request could start service; the
    // scheduler clamps past cycles to "due now".
    if (wake_)
        wake_(busBusyUntil_);
}

void
DramChannel::pushWrite(Addr line_addr, const LineData &data,
                       std::uint32_t word_mask)
{
    queue_.push_back(Request{line_addr, true, data, word_mask, nullptr});
    ++(*writes_);
    if (wake_)
        wake_(busBusyUntil_);
}

void
DramChannel::tick(Cycle now)
{
    // Start at most one request per cycle once the data bus frees up.
    if (queue_.empty() || now < busBusyUntil_)
        return;

    // FR-FCFS: prefer the oldest row hit within the scheduling
    // window, but never reorder requests for the same line (the L2
    // relies on per-line write-back -> refetch order).
    std::size_t pick = 0;
    if (frfcfs_) {
        std::size_t window = std::min<std::size_t>(schedWindow_,
                                                   queue_.size());
        for (std::size_t i = 0; i < window; ++i) {
            const Request &cand = queue_[i];
            if (openRow_[bankOf(cand.lineAddr)] != rowOf(cand.lineAddr))
                continue;
            bool conflict = false;
            for (std::size_t j = 0; j < i; ++j)
                conflict |= (queue_[j].lineAddr == cand.lineAddr);
            if (!conflict) {
                pick = i;
                if (i != 0)
                    ++(*frfcfsReorders_);
                break;
            }
        }
    }

    Request req = std::move(queue_[pick]);
    if (pick == 0)
        queue_.pop_front();
    else
        queue_.erase(pick);

    unsigned bank = bankOf(req.lineAddr);
    Addr row = rowOf(req.lineAddr);
    bool row_hit = (openRow_[bank] == row);
    openRow_[bank] = row;
    Cycle access_lat = (row_hit ? tRowHit_ : tRowMiss_) + burstCycles_;
    ++(*(row_hit ? rowHits_ : rowMisses_));

    if (trace_) {
        trace_->record(track_,
                       obs::Event{now, req.lineAddr, access_lat, 0,
                                  obs::EventKind::DramActivate,
                                  static_cast<std::uint16_t>(bank),
                                  static_cast<std::uint16_t>(row_hit)});
    }

    busBusyUntil_ = now + burstCycles_;

    if (req.isWrite) {
        // Functional write at service time keeps FCFS read-after-write
        // within this channel correct.
        memory_.writeMasked(req.lineAddr, req.data, req.wordMask);
        return;
    }

    ++pending_;
    std::uint32_t slot = returns_.acquire();
    ReadReturn &ret = returns_[slot];
    ret.lineAddr = req.lineAddr;
    ret.data = memory_.readLine(req.lineAddr);
    ret.cb = std::move(req.cb);
    events_.schedule(now + access_lat, [this, slot]() {
        ReadReturn &r = returns_[slot];
        --pending_;
        if (trace_) {
            trace_->record(track_,
                           obs::Event{events_.now(), r.lineAddr, 0, 0,
                                      obs::EventKind::DramReturn, 0,
                                      0});
        }
        r.cb(r.data);
        returns_.release(slot);
    });
}

} // namespace gtsc::mem
