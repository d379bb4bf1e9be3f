#include "protocols/noncoh_l1.hh"

#include <string>

#include "obs/tracer.hh"
#include "protocols/message_sizes.hh"
#include "sim/log.hh"

namespace gtsc::protocols
{

NonCohL1::NonCohL1(SmId sm, const sim::Config &cfg, sim::StatSet &stats,
                   sim::EventQueue &events, mem::CoherenceProbe *probe)
    : sm_(sm), stats_(stats), events_(events), probe_(probe),
      array_(cfg.getUint("l1.size_bytes"), cfg.getUint("l1.assoc")),
      mshr_(cfg.getUint("l1.mshr_entries"))
{
    numPartitions_ = static_cast<unsigned>(cfg.getUint("gpu.num_partitions"));
    hitLatency_ = std::max<Cycle>(1, cfg.getUint("l1.hit_latency"));

    hits_ = &stats_.counter("l1.hits");
    missCold_ = &stats_.counter("l1.miss_cold");
    merged_ = &stats_.counter("l1.merged");
    busRdSent_ = &stats_.counter("l1.busrd_sent");
    busWrSent_ = &stats_.counter("l1.buswr_sent");
    tagAccesses_ = &stats_.counter("l1.tag_accesses");
    dataReads_ = &stats_.counter("l1.data_reads");
    dataWrites_ = &stats_.counter("l1.data_writes");
    rejects_ = &stats_.counter("l1.rejects_mshr_full");
}

void
NonCohL1::attachTracer(obs::Tracer &tracer)
{
    trace_ = &tracer;
    track_ = tracer.track("l1.sm" + std::to_string(sm_));
    mshr_.setTrace(&tracer, track_, &events_);
}

bool
NonCohL1::quiescent() const
{
    return mshr_.size() == 0 && pendingStores_.empty();
}

void
NonCohL1::flush(Cycle now)
{
    (void)now;
    GTSC_ASSERT(quiescent(), "L1 flush while busy");
    array_.invalidateAll();
}

void
NonCohL1::completeLoad(const mem::Access &acc, const mem::LineData &data,
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
        // Words covered by this SM's own in-flight stores are store
        // forwarding (the value is not globally performed yet), not
        // a memory observation.
        std::uint32_t forwarded = 0;
        pendingStores_.forEach(
            [&](std::uint64_t, const mem::Access &st) {
                if (st.lineAddr == acc.lineAddr)
                    forwarded |= st.wordMask;
            });
        for (unsigned w = 0; w < mem::kWordsPerLine; ++w) {
            if ((acc.wordMask & (1u << w)) &&
                !(forwarded & (1u << w))) {
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
NonCohL1::access(const mem::Access &acc, Cycle now)
{
    ++(*tagAccesses_);
    mem::CacheBlock *blk = array_.lookup(acc.lineAddr);

    if (acc.isStore) {
        // Write-through, no allocate; keep the local copy updated so
        // the SM's own later reads see its writes.
        if (blk) {
            array_.dataOf(*blk).mergeMasked(acc.storeData,
                                            acc.wordMask);
            ++(*dataWrites_);
        }
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
            baselineMessageBytes(mem::MsgType::BusWr, acc.wordMask);
        ++(*busWrSent_);
        send_(std::move(pkt));
        return true;
    }

    if (blk) {
        array_.touch(*blk);
        ++(*hits_);
        ++(*dataReads_);
        if (trace_) {
            trace_->record(track_,
                           obs::Event{now, acc.lineAddr,
                                      blk->meta.grant, 0,
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
    ++(*missCold_);
    if (trace_) {
        trace_->record(track_,
                       obs::Event{now, acc.lineAddr, 0, 0,
                                  obs::EventKind::L1MissCold, acc.warp,
                                  0});
    }
    entry->requestSent = true;
    entry->waiters.push_back(acc);

    mem::Packet pkt;
    pkt.type = mem::MsgType::BusRd;
    pkt.lineAddr = acc.lineAddr;
    pkt.src = sm_;
    pkt.part = mem::partitionOf(acc.lineAddr, numPartitions_);
    pkt.warp = acc.warp;
    pkt.sizeBytes = baselineMessageBytes(mem::MsgType::BusRd, 0);
    ++(*busRdSent_);
    send_(std::move(pkt));
    return true;
}

void
NonCohL1::receiveResponse(mem::Packet &&pkt, Cycle now)
{
    if (pkt.type == mem::MsgType::BusWrAck) {
        mem::Access *pending = pendingStores_.find(pkt.reqId);
        GTSC_ASSERT(pending, "ack without pending store");
        mem::Access acc = *pending;
        pendingStores_.erase(pkt.reqId);
        storeDone_(acc, 0);
        return;
    }
    GTSC_ASSERT(pkt.type == mem::MsgType::BusFill,
                "NonCoh L1 unexpected response ", pkt.toString());

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
        blk->meta.grant = pkt.gwct;
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
