#include "noc/crossbar.hh"

#include <algorithm>

#include "noc/obs_hooks.hh"
#include "sim/log.hh"

namespace gtsc::noc
{

Crossbar::Crossbar(unsigned num_src, unsigned num_dst,
                   const sim::Config &cfg, sim::StatSet &stats,
                   const std::string &name)
    : stats_(stats), name_(name), numSrc_(num_src), numDst_(num_dst)
{
    bytesPerCycle_ = cfg.getUint("noc.bytes_per_cycle");
    hopLatency_ = cfg.getUint("noc.hop_latency");
    if (bytesPerCycle_ == 0)
        GTSC_FATAL("noc.bytes_per_cycle must be > 0");
    srcFree_.assign(numSrc_, 0);
    dstFree_.assign(numDst_, 0);
    // One packet per source per cycle can arrive (injection links
    // serialize), so span buckets reserved to the source count never
    // grow — zero-alloc steady state by construction.
    ring_.init(kArrivalRingSpan, numSrc_);
    portFifo_.resize(numDst_);
    pending_.resize(numDst_);
    bytesTotal_ = &stats_.counter(name_ + ".bytes");
    packetsTotal_ = &stats_.counter(name_ + ".packets");
    for (unsigned t = 0; t < mem::kNumMsgTypes; ++t) {
        const char *tn = mem::msgTypeName(static_cast<mem::MsgType>(t));
        bytesByType_[t] = &stats_.counter(name_ + ".bytes." + tn);
        packetsByType_[t] = &stats_.counter(name_ + ".packets." + tn);
    }
    latency_ = &stats_.distribution(name_ + ".latency");
}

Cycle
Crossbar::txCycles(std::uint32_t bytes) const
{
    return (bytes + bytesPerCycle_ - 1) / bytesPerCycle_;
}

void
Crossbar::flushStatWindow()
{
    *bytesTotal_ += win_.bytes;
    for (unsigned t = 0; t < mem::kNumMsgTypes; ++t) {
        *bytesByType_[t] += win_.bytesByType[t];
        *packetsByType_[t] += win_.packetsByType[t];
    }
    win_ = StatWindow{};
}

void
Crossbar::attachTracer(obs::Tracer &tracer)
{
    trace_ = &tracer;
    track_ = tracer.track(name_);
}

void
Crossbar::attachTranscript(obs::Transcript &transcript, bool response)
{
    transcript_ = &transcript;
    transcriptResponse_ = response;
}

void
Crossbar::inject(unsigned src, unsigned dst, mem::Packet &&pkt, Cycle now)
{
    GTSC_ASSERT(src < numSrc_ && dst < numDst_,
                "crossbar port out of range src=", src, " dst=", dst);
    GTSC_ASSERT(pkt.sizeBytes > 0, "packet injected with zero size: ",
                pkt.toString());

    pkt.injectedAt = now;
    win_.bytes += pkt.sizeBytes;
    *packetsTotal_ += 1; // live: the progress token reads it per cycle
    win_.bytesByType[static_cast<unsigned>(pkt.type)] += pkt.sizeBytes;
    win_.packetsByType[static_cast<unsigned>(pkt.type)] += 1;

    if (trace_) {
        recordNocEvent(*trace_, track_, obs::EventKind::NocInject, pkt,
                       src, dst, now, pkt.sizeBytes);
    }

    // Serialize on the injection link, then cross the fabric.
    Cycle tx = txCycles(pkt.sizeBytes);
    Cycle start = std::max(now, srcFree_[src]);
    srcFree_[src] = start + tx;
    Cycle arrive = start + tx + hopLatency_;

    ++inFlight_;
    std::uint32_t slot = pool_.acquire();
    pool_[slot] = std::move(pkt);
    ring_.push(now, arrive, InFlight{slot, dst});
    // Conservative bound: the fabric arrival ignores the ejection
    // link's serialization window, so it is never later than the
    // true ejection; the sweep at that cycle re-tightens it exactly
    // (an early sweep only moves due entries to their port FIFO —
    // no observable side effects).
    if (arrive < earliestEject_)
        earliestEject_ = arrive;
    wake(earliestEject_);
}

void
Crossbar::tickSweep(Cycle now)
{
    // Phase 1: pop exactly the due packets off the arrival ring into
    // their port FIFOs, in (arrive, inject) order — so each FIFO is
    // in delivery order by construction.
    ring_.drainDue(now, [&](Cycle, const InFlight &e) {
        portFifo_[e.dst].push_back(e.slot);
        pending_.set(e.dst);
    });

    // Phase 2: eject at most one packet per pending port (the
    // ejection link serializes for txCycles >= 1), ascending port
    // order like the old per-port sweep.
    pending_.forEachSet([&](unsigned dst) {
        if (dstFree_[dst] > now)
            return;
        auto &fifo = portFifo_[dst];
        std::uint32_t slot = fifo.front();
        fifo.pop_front();
        if (fifo.empty())
            pending_.clear(dst);
        mem::Packet pkt = std::move(pool_[slot]);
        pool_.release(slot);
        --inFlight_;
        dstFree_[dst] = now + txCycles(pkt.sizeBytes);
        latency_->sample(static_cast<double>(now - pkt.injectedAt));
        if (trace_) {
            recordNocEvent(*trace_, track_, obs::EventKind::NocDeliver,
                           pkt, pkt.src, dst, now, now - pkt.injectedAt);
        }
        if (transcript_) {
            logTranscript(*transcript_, pkt, dst, transcriptResponse_,
                          now);
        }
        deliver_(dst, std::move(pkt));
    });

    // Re-tighten the global bound after both phases: deliveries can
    // re-enter inject() on this crossbar (new ring arrivals), and a
    // port that just ejected is busy until its link frees. Waiting
    // FIFO heads have already arrived, so their port's bound is its
    // link-free cycle exactly.
    Cycle earliest = ring_.nextArrival();
    pending_.forEachSet([&](unsigned dst) {
        earliest = std::min(earliest, std::max(dstFree_[dst], now + 1));
    });
    earliestEject_ = earliest;
}

} // namespace gtsc::noc
