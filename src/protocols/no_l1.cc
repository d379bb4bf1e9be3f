#include "protocols/no_l1.hh"

#include "protocols/message_sizes.hh"
#include "sim/log.hh"

namespace gtsc::protocols
{

NoL1::NoL1(SmId sm, const sim::Config &cfg, sim::StatSet &stats,
           sim::EventQueue &events, mem::CoherenceProbe *probe)
    : sm_(sm), stats_(stats), events_(events), probe_(probe)
{
    numPartitions_ = cfg.getUnsigned("gpu.num_partitions");
    maxPending_ = cfg.getUint("nol1.max_pending");

    reads_ = &stats_.counter("l1.bypass_reads");
    writes_ = &stats_.counter("l1.bypass_writes");
    rejects_ = &stats_.counter("l1.rejects_mshr_full");
}

bool
NoL1::quiescent() const
{
    return pendingLoads_.empty() && pendingStores_.empty();
}

void
NoL1::flush(Cycle now)
{
    (void)now;
    moveGeneration();
}

bool
NoL1::access(const mem::Access &acc, Cycle now)
{
    (void)now;
    // No tag probe: a reject bumps the reject counter alone.
    if (pendingLoads_.size() + pendingStores_.size() >= maxPending_)
        return reject(nullptr, rejects_);
    mem::Packet pkt;
    pkt.lineAddr = acc.lineAddr;
    pkt.src = sm_;
    pkt.part = mem::partitionOf(acc.lineAddr, numPartitions_);
    pkt.warp = acc.warp;
    pkt.reqId = acc.id;
    if (acc.isStore) {
        pkt.type = mem::MsgType::BusWr;
        pkt.wordMask = acc.wordMask;
        pkt.data = acc.storeData;
        pkt.sizeBytes =
            baselineMessageBytes(mem::MsgType::BusWr, acc.wordMask);
        pendingStores_.emplace(acc.id) = acc;
        ++(*writes_);
    } else {
        pkt.type = mem::MsgType::BusRd;
        pkt.sizeBytes = baselineMessageBytes(mem::MsgType::BusRd, 0);
        pendingLoads_.emplace(acc.id) = acc;
        ++(*reads_);
    }
    send_(std::move(pkt));
    moveGeneration();
    return true;
}

void
NoL1::receiveResponse(mem::Packet &&pkt, Cycle now)
{
    moveGeneration();
    if (pkt.type == mem::MsgType::BusWrAck) {
        mem::Access *pending = pendingStores_.find(pkt.reqId);
        GTSC_ASSERT(pending, "BL ack without pending store");
        mem::Access acc = *pending;
        pendingStores_.erase(pkt.reqId);
        storeDone_(acc, 0);
        return;
    }
    GTSC_ASSERT(pkt.type == mem::MsgType::BusFill,
                "BL unexpected response ", pkt.toString());
    mem::Access *pending = pendingLoads_.find(pkt.reqId);
    GTSC_ASSERT(pending, "BL fill without pending load");

    std::uint32_t slot = loadReplies_.acquire();
    LoadReply &rec = loadReplies_[slot];
    rec.acc = *pending;
    rec.res = {.data = pkt.data, .leaseGrant = pkt.gwct};
    pendingLoads_.erase(pkt.reqId);
    const mem::Access &acc = rec.acc;
    if (probe_) {
        for (unsigned w = 0; w < mem::kWordsPerLine; ++w) {
            if (acc.wordMask & (1u << w)) {
                probe_->onLoadPhys(acc.lineAddr + w * mem::kWordBytes,
                                   pkt.gwct, now, pkt.data.word(w), sm_,
                                   acc.warp);
            }
        }
    }
    events_.schedule(now + 1, [this, slot]() {
        LoadReply &r = loadReplies_[slot];
        loadDone_(r.acc, r.res);
        loadReplies_.release(slot);
    });
}

} // namespace gtsc::protocols
