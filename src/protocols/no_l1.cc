#include "protocols/no_l1.hh"

#include "protocols/message_sizes.hh"
#include "sim/log.hh"

namespace gtsc::protocols
{

NoL1::NoL1(SmId sm, const sim::Config &cfg, sim::StatSet &stats,
           sim::EventQueue &events, mem::CoherenceProbe *probe)
    : sm_(sm), stats_(stats), events_(events), probe_(probe)
{
    numPartitions_ = static_cast<unsigned>(cfg.getUint("gpu.num_partitions"));
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
}

bool
NoL1::access(const mem::Access &acc, Cycle now)
{
    (void)now;
    if (pendingLoads_.size() + pendingStores_.size() >= maxPending_) {
        ++(*rejects_);
        return false;
    }
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
        pendingStores_[acc.id] = acc;
        ++(*writes_);
    } else {
        pkt.type = mem::MsgType::BusRd;
        pkt.sizeBytes = baselineMessageBytes(mem::MsgType::BusRd, 0);
        pendingLoads_[acc.id] = acc;
        ++(*reads_);
    }
    send_(std::move(pkt));
    return true;
}

void
NoL1::receiveResponse(mem::Packet &&pkt, Cycle now)
{
    if (pkt.type == mem::MsgType::BusWrAck) {
        auto it = pendingStores_.find(pkt.reqId);
        GTSC_ASSERT(it != pendingStores_.end(),
                    "BL ack without pending store");
        mem::Access acc = it->second;
        pendingStores_.erase(it);
        storeDone_(acc, 0);
        return;
    }
    GTSC_ASSERT(pkt.type == mem::MsgType::BusFill,
                "BL unexpected response ", pkt.toString());
    auto it = pendingLoads_.find(pkt.reqId);
    GTSC_ASSERT(it != pendingLoads_.end(), "BL fill without pending load");
    mem::Access acc = it->second;
    pendingLoads_.erase(it);

    mem::AccessResult res;
    res.data = pkt.data;
    res.l1Hit = false;
    res.leaseGrant = pkt.gwct;
    if (probe_) {
        for (unsigned w = 0; w < mem::kWordsPerLine; ++w) {
            if (acc.wordMask & (1u << w)) {
                probe_->onLoadPhys(acc.lineAddr + w * mem::kWordBytes,
                                   pkt.gwct, now, res.data.word(w), sm_,
                                   acc.warp);
            }
        }
    }
    events_.schedule(now + 1, [this, acc, res]() {
        loadDone_(acc, res);
    });
}

} // namespace gtsc::protocols
