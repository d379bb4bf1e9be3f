#include "protocols/simple_l2.hh"

#include <string>

#include "obs/tracer.hh"
#include "protocols/message_sizes.hh"
#include "sim/log.hh"

namespace gtsc::protocols
{

SimpleL2::SimpleL2(PartitionId part, const sim::Config &cfg,
                   sim::StatSet &stats, sim::EventQueue &events,
                   mem::DramChannel &dram, mem::MainMemory &memory,
                   mem::CoherenceProbe *probe)
    : part_(part), stats_(stats), events_(events), dram_(dram),
      memory_(memory), probe_(probe),
      array_(cfg.getUint("l2.partition_bytes"), cfg.getUint("l2.assoc"))
{
    ports_ = static_cast<unsigned>(cfg.getUint("l2.ports"));
    accessLatency_ = cfg.getUint("l2.access_latency");
    mshrCapacity_ = cfg.getUint("l2.mshr_entries");

    accesses_ = &stats_.counter("l2.accesses");
    hits_ = &stats_.counter("l2.hits");
    missesStat_ = &stats_.counter("l2.misses");
    writes_ = &stats_.counter("l2.writes");
    evictions_ = &stats_.counter("l2.evictions");
    writebacks_ = &stats_.counter("l2.writebacks");
    stallMshrFull_ = &stats_.counter("l2.stall_mshr_full");
    queueCycles_ = &stats_.counter("l2.queue_occupancy_cycles");
    serviceLatency_ = &stats_.distribution("l2.service_latency");
}

void
SimpleL2::attachTracer(obs::Tracer &tracer)
{
    trace_ = &tracer;
    track_ = tracer.track("l2.part" + std::to_string(part_));
}

bool
SimpleL2::quiescent() const
{
    return queue_.empty() && misses_.empty();
}

void
SimpleL2::flushAll(Cycle now)
{
    (void)now;
    GTSC_ASSERT(quiescent(), "L2 flush while busy");
    array_.forEachValid([this](mem::CacheBlock &blk) {
        if (blk.dirty)
            memory_.writeLine(blk.lineAddr, array_.dataOf(blk));
        array_.invalidate(blk);
    });
}

void
SimpleL2::receiveRequest(mem::Packet &&pkt, Cycle now)
{
    queue_.push_back(std::move(pkt));
    // The service queue is this controller's only source of tick()
    // work; misses complete through events (wake contract).
    wake(now);
}

void
SimpleL2::respond(mem::Packet &&resp, Cycle now)
{
    std::uint32_t slot = respPool_.acquire();
    respPool_[slot] = std::move(resp);
    events_.schedule(now + accessLatency_, [this, slot]() {
        send_(std::move(respPool_[slot]));
        respPool_.release(slot);
    });
}

void
SimpleL2::serve(mem::CacheBlock &blk, mem::Packet &pkt, Cycle now)
{
    array_.touch(blk);
    if (pkt.type == mem::MsgType::BusRd) {
        mem::Packet resp;
        resp.type = mem::MsgType::BusFill;
        resp.lineAddr = pkt.lineAddr;
        resp.src = pkt.src;
        resp.part = part_;
        resp.warp = pkt.warp;
        resp.gwct = now; // service cycle (checker bookkeeping)
        resp.data = array_.dataOf(blk);
        resp.reqId = pkt.reqId;
        resp.sizeBytes = baselineMessageBytes(mem::MsgType::BusFill, 0);
        respond(std::move(resp), now);
        return;
    }
    GTSC_ASSERT(pkt.type == mem::MsgType::BusWr,
                "SimpleL2 unexpected packet ", pkt.toString());
    array_.dataOf(blk).mergeMasked(pkt.data, pkt.wordMask);
    blk.dirty = true;
    ++(*writes_);
    if (trace_) {
        trace_->record(track_,
                       obs::Event{now, pkt.lineAddr, now, 0,
                                  obs::EventKind::WtsUpdate, pkt.src,
                                  pkt.warp});
    }
    if (probe_) {
        for (unsigned w = 0; w < mem::kWordsPerLine; ++w) {
            if (pkt.wordMask & (1u << w)) {
                probe_->onStorePhys(pkt.lineAddr + w * mem::kWordBytes,
                                    now, pkt.data.word(w), pkt.src,
                                    pkt.warp);
            }
        }
    }
    mem::Packet resp;
    resp.type = mem::MsgType::BusWrAck;
    resp.lineAddr = pkt.lineAddr;
    resp.src = pkt.src;
    resp.part = part_;
    resp.warp = pkt.warp;
    resp.reqId = pkt.reqId;
    resp.sizeBytes = baselineMessageBytes(mem::MsgType::BusWrAck, 0);
    respond(std::move(resp), now);
}

bool
SimpleL2::process(mem::Packet &pkt, Cycle now)
{
    ++(*accesses_);
    if (pkt.injectedAt > 0) {
        serviceLatency_->sample(static_cast<double>(now - pkt.injectedAt));
        pkt.injectedAt = 0; // waiter replays sample only once
    }
    mem::CacheBlock *blk = array_.lookup(pkt.lineAddr);
    if (blk) {
        ++(*hits_);
        serve(*blk, pkt, now);
        return true;
    }
    if (MissEntry *pending = misses_.find(pkt.lineAddr)) {
        pending->waiters.push_back(pkt);
        return true;
    }
    if (misses_.size() >= mshrCapacity_)
        return false;
    ++(*missesStat_);
    MissEntry &entry = misses_.emplace(pkt.lineAddr);
    entry.waiters.clear(); // recycled slot: stale waiters possible
    entry.waiters.push_back(pkt);
    Addr line = pkt.lineAddr;
    dram_.pushRead(line, [this, line](const mem::LineData &data) {
        onDramFill(line, data, events_.now());
    });
    return true;
}

void
SimpleL2::onDramFill(Addr line, const mem::LineData &data, Cycle now)
{
    mem::CacheBlock *victim = array_.victim(line);
    GTSC_ASSERT(victim, "SimpleL2 victim selection cannot fail");
    if (victim->valid) {
        ++(*evictions_);
        if (victim->dirty) {
            ++(*writebacks_);
            dram_.pushWrite(victim->lineAddr,
                            array_.dataOf(*victim), 0xffffffffu);
        }
    }
    array_.insert(*victim, line);
    array_.dataOf(*victim) = data;

    MissEntry *entry = misses_.find(line);
    GTSC_ASSERT(entry, "fill without miss entry");
    waitersScratch_.clear();
    waitersScratch_.swap(entry->waiters);
    misses_.erase(line);
    for (auto &w : waitersScratch_)
        serve(*victim, w, now);
}

void
SimpleL2::tickQueue(Cycle now)
{
    (*queueCycles_) += queue_.size();
    for (unsigned i = 0; i < ports_ && !queue_.empty(); ++i) {
        if (!process(queue_.front(), now)) {
            ++(*stallMshrFull_);
            break;
        }
        queue_.pop_front();
    }
}

} // namespace gtsc::protocols
