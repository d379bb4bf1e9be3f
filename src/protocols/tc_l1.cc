#include "protocols/tc_l1.hh"

#include <string>

#include "obs/tracer.hh"
#include "protocols/message_sizes.hh"
#include "sim/log.hh"

namespace gtsc::protocols
{

TcL1::TcL1(SmId sm, const sim::Config &cfg, sim::StatSet &stats,
           sim::EventQueue &events, mem::CoherenceProbe *probe)
    : sm_(sm), stats_(stats), events_(events), probe_(probe),
      array_(cfg.getUint("l1.size_bytes"), cfg.getUint("l1.assoc")),
      mshr_(cfg.getUint("l1.mshr_entries"))
{
    numPartitions_ = static_cast<unsigned>(cfg.getUint("gpu.num_partitions"));
    hitLatency_ = std::max<Cycle>(1, cfg.getUint("l1.hit_latency"));

    hits_ = &stats_.counter("l1.hits");
    missCold_ = &stats_.counter("l1.miss_cold");
    missExpired_ = &stats_.counter("l1.miss_expired");
    merged_ = &stats_.counter("l1.merged");
    busRdSent_ = &stats_.counter("l1.busrd_sent");
    busWrSent_ = &stats_.counter("l1.buswr_sent");
    tagAccesses_ = &stats_.counter("l1.tag_accesses");
    dataReads_ = &stats_.counter("l1.data_reads");
    dataWrites_ = &stats_.counter("l1.data_writes");
    rejects_ = &stats_.counter("l1.rejects_mshr_full");
}

void
TcL1::attachTracer(obs::Tracer &tracer)
{
    trace_ = &tracer;
    track_ = tracer.track("l1.sm" + std::to_string(sm_));
    mshr_.setTrace(&tracer, track_, &events_);
}

bool
TcL1::quiescent() const
{
    return mshr_.size() == 0 && pendingStores_.empty();
}

void
TcL1::flush(Cycle now)
{
    (void)now;
    GTSC_ASSERT(quiescent(), "L1 flush while busy");
    array_.invalidateAll();
}

void
TcL1::completeLoad(const mem::Access &acc, const mem::LineData &data,
                   bool hit, Cycle grant, Cycle now)
{
    std::uint32_t slot = loadReplies_.acquire();
    LoadReply &rec = loadReplies_[slot];
    rec.acc = acc;
    mem::AccessResult &res = rec.res;
    res.data = data;
    res.l1Hit = hit;
    res.loadTs = 0; // recycled slot: reset every field
    res.epoch = 0;
    res.leaseGrant = grant;
    if (probe_) {
        for (unsigned w = 0; w < mem::kWordsPerLine; ++w) {
            if (acc.wordMask & (1u << w)) {
                probe_->onLoadPhys(acc.lineAddr + w * mem::kWordBytes,
                                   grant, now, data.word(w), sm_,
                                   acc.warp);
            }
        }
    }
    Cycle delay = hit ? hitLatency_ : 1;
    events_.schedule(now + delay, [this, slot]() {
        LoadReply &r = loadReplies_[slot];
        loadDone_(r.acc, r.res);
        loadReplies_.release(slot);
    });
}

bool
TcL1::access(const mem::Access &acc, Cycle now)
{
    ++(*tagAccesses_);
    mem::CacheBlock *blk = array_.lookup(acc.lineAddr);

    if (acc.isStore) {
        // Write-through, no local update: the private copy is
        // invalidated and the L2 performs the write.
        if (blk)
            array_.invalidate(*blk);
        pendingStores_[acc.id] = acc;
        mem::Packet pkt;
        pkt.type = mem::MsgType::BusWr;
        pkt.lineAddr = acc.lineAddr;
        pkt.src = sm_;
        pkt.part = mem::partitionOf(acc.lineAddr, numPartitions_);
        pkt.warp = acc.warp;
        pkt.wordMask = acc.wordMask;
        pkt.data = acc.storeData;
        pkt.reqId = acc.id;
        pkt.sizeBytes =
            tcMessageBytes(mem::MsgType::BusWr, acc.wordMask);
        ++(*busWrSent_);
        ++(*dataWrites_);
        send_(std::move(pkt));
        return true;
    }

    // Load: a valid tag with an unexpired lease is a hit.
    if (blk && now < blk->meta.leaseEnd) {
        array_.touch(*blk);
        ++(*hits_);
        ++(*dataReads_);
        if (trace_) {
            trace_->record(track_,
                           obs::Event{now, acc.lineAddr,
                                      blk->meta.grant, blk->meta.leaseEnd,
                                      obs::EventKind::L1Hit, acc.warp,
                                      0});
        }
        completeLoad(acc, array_.dataOf(*blk), true,
                     blk->meta.grant, now);
        return true;
    }

    if (mem::MshrEntry *entry = mshr_.find(acc.lineAddr)) {
        entry->waiters.push_back(acc);
        ++(*merged_);
        return true;
    }
    mem::MshrEntry *entry = mshr_.alloc(acc.lineAddr);
    if (!entry) {
        ++(*rejects_);
        return false;
    }
    if (blk) {
        ++(*missExpired_); // self-invalidated: coherence miss
        if (trace_) {
            trace_->record(track_,
                           obs::Event{now, acc.lineAddr,
                                      blk->meta.grant, blk->meta.leaseEnd,
                                      obs::EventKind::L1MissExpired,
                                      acc.warp, 0});
        }
    } else {
        ++(*missCold_);
        if (trace_) {
            trace_->record(track_,
                           obs::Event{now, acc.lineAddr, 0, 0,
                                      obs::EventKind::L1MissCold,
                                      acc.warp, 0});
        }
    }
    entry->requestSent = true;
    entry->waiters.push_back(acc);

    mem::Packet pkt;
    pkt.type = mem::MsgType::BusRd;
    pkt.lineAddr = acc.lineAddr;
    pkt.src = sm_;
    pkt.part = mem::partitionOf(acc.lineAddr, numPartitions_);
    pkt.warp = acc.warp;
    pkt.sizeBytes = tcMessageBytes(mem::MsgType::BusRd, 0);
    ++(*busRdSent_);
    send_(std::move(pkt));
    return true;
}

void
TcL1::receiveResponse(mem::Packet &&pkt, Cycle now)
{
    if (pkt.type == mem::MsgType::BusWrAck) {
        mem::Access *pending = pendingStores_.find(pkt.reqId);
        GTSC_ASSERT(pending, "TC BusWrAck without pending store");
        mem::Access acc = *pending;
        pendingStores_.erase(pkt.reqId);
        storeDone_(acc, pkt.gwct);
        return;
    }
    GTSC_ASSERT(pkt.type == mem::MsgType::BusFill,
                "TC L1 unexpected response ", pkt.toString());

    mem::CacheBlock *blk = array_.lookup(pkt.lineAddr);
    if (!blk) {
        mem::CacheBlock *victim = array_.victim(pkt.lineAddr);
        if (victim) {
            array_.insert(*victim, pkt.lineAddr);
            blk = victim;
        }
    }
    if (blk) {
        array_.dataOf(*blk) = pkt.data;
        blk->meta.leaseEnd = pkt.leaseEnd;
        blk->meta.grant = pkt.gwct; // grant cycle carried in gwct
        array_.touch(*blk);
    }

    if (mem::MshrEntry *entry = mshr_.find(pkt.lineAddr)) {
        waitersScratch_.clear();
        waitersScratch_.swap(entry->waiters);
        mshr_.free(pkt.lineAddr);
        for (const auto &acc : waitersScratch_)
            completeLoad(acc, pkt.data, false, pkt.gwct, now);
    }
}

} // namespace gtsc::protocols
