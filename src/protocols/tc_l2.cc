#include "protocols/tc_l2.hh"

#include <algorithm>
#include <string>

#include "obs/tracer.hh"
#include "protocols/message_sizes.hh"
#include "sim/log.hh"

namespace gtsc::protocols
{

TcL2::TcL2(PartitionId part, const sim::Config &cfg, sim::StatSet &stats,
           sim::EventQueue &events, mem::DramChannel &dram,
           mem::MainMemory &memory, bool strong,
           mem::CoherenceProbe *probe)
    : part_(part), stats_(stats), events_(events), dram_(dram),
      memory_(memory), strong_(strong), probe_(probe),
      array_(cfg.getUint("l2.partition_bytes"), cfg.getUint("l2.assoc"))
{
    ports_ = cfg.getUnsigned("l2.ports");
    accessLatency_ = cfg.getUint("l2.access_latency");
    lease_ = cfg.getUint("tc.lease");
    mshrCapacity_ = cfg.getUint("l2.mshr_entries");

    accesses_ = &stats_.counter("l2.accesses");
    hits_ = &stats_.counter("l2.hits");
    missesStat_ = &stats_.counter("l2.misses");
    writes_ = &stats_.counter("l2.writes");
    evictions_ = &stats_.counter("l2.evictions");
    writebacks_ = &stats_.counter("l2.writebacks");
    stallMshrFull_ = &stats_.counter("l2.stall_mshr_full");
    writeStallCycles_ = &stats_.counter("l2.write_stall_cycles");
    evictStallCycles_ = &stats_.counter("l2.evict_stall_cycles");
    queueCycles_ = &stats_.counter("l2.queue_occupancy_cycles");
    serviceLatency_ = &stats_.distribution("l2.service_latency");
}

void
TcL2::attachTracer(obs::Tracer &tracer)
{
    trace_ = &tracer;
    track_ = tracer.track("l2.part" + std::to_string(part_));
}

bool
TcL2::quiescent() const
{
    return queue_.empty() && misses_.empty() && stalled_.empty() &&
           pendingInserts_.empty();
}

void
TcL2::flushAll(Cycle now)
{
    (void)now;
    GTSC_ASSERT(quiescent(), "TC L2 flush while busy");
    array_.forEachValid([this](mem::CacheBlock &blk) {
        if (blk.dirty)
            memory_.writeLine(blk.lineAddr, blk.data);
        array_.invalidate(blk);
        blk.meta.leaseEnd = 0;
    });
}

void
TcL2::receiveRequest(mem::Packet &&pkt, Cycle now)
{
    queue_.push_back(std::move(pkt));
    wake(now);
}

void
TcL2::respond(mem::Packet &&resp, Cycle now)
{
    std::uint32_t slot = respPool_.acquire();
    respPool_[slot] = std::move(resp);
    events_.schedule(now + accessLatency_, [this, slot]() {
        send_(std::move(respPool_[slot]));
        respPool_.release(slot);
    });
}

void
TcL2::serveRead(mem::CacheBlock &blk, mem::Packet &pkt, Cycle now)
{
    Cycle new_lease = std::max(blk.meta.leaseEnd, now + lease_);
    if (trace_ && new_lease > blk.meta.leaseEnd) {
        trace_->record(track_,
                       obs::Event{now, pkt.lineAddr, blk.meta.leaseEnd,
                                  new_lease, obs::EventKind::LeaseExtend,
                                  pkt.src, pkt.warp});
    }
    blk.meta.leaseEnd = new_lease;
    array_.touch(blk);

    mem::Packet resp;
    resp.type = mem::MsgType::BusFill;
    resp.lineAddr = pkt.lineAddr;
    resp.src = pkt.src;
    resp.part = part_;
    resp.warp = pkt.warp;
    resp.leaseEnd = blk.meta.leaseEnd;
    resp.gwct = now; // grant cycle (checker bookkeeping)
    resp.data = blk.data;
    resp.reqId = pkt.reqId;
    resp.sizeBytes = tcMessageBytes(mem::MsgType::BusFill, 0);
    respond(std::move(resp), now);
}

void
TcL2::performWrite(mem::CacheBlock &blk, mem::Packet &pkt, Cycle now)
{
    Cycle gwct = std::max(now, blk.meta.leaseEnd);
    blk.data.mergeMasked(pkt.data, pkt.wordMask);
    blk.dirty = true;
    array_.touch(blk);
    ++(*writes_);
    if (trace_) {
        trace_->record(track_,
                       obs::Event{now, pkt.lineAddr, now, gwct,
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
    resp.gwct = gwct; // TC-Weak fence target; == now for strong
    resp.reqId = pkt.reqId;
    resp.sizeBytes = tcMessageBytes(mem::MsgType::BusWrAck, 0);
    respond(std::move(resp), now);
}

bool
TcL2::process(mem::Packet &pkt, Cycle now)
{
    ++(*accesses_);
    if (pkt.injectedAt > 0) {
        serviceLatency_->sample(static_cast<double>(now - pkt.injectedAt));
        pkt.injectedAt = 0; // waiter replays sample only once
    }

    // Strong mode: anything to a line with stalled ops queues behind
    // them, preserving per-line order ("subsequent reads are
    // delayed until the write is performed").
    auto st = stalled_.find(pkt.lineAddr);
    if (st != stalled_.end()) {
        st->second.push_back(pkt);
        return true;
    }

    mem::CacheBlock *blk = array_.lookup(pkt.lineAddr);
    if (blk) {
        ++(*hits_);
        if (pkt.type == mem::MsgType::BusRd) {
            serveRead(*blk, pkt, now);
        } else if (pkt.type == mem::MsgType::BusWr) {
            if (strong_ && blk->meta.leaseEnd > now) {
                // TC-Strong: delay until every private copy has
                // self-invalidated.
                stalled_[pkt.lineAddr].push_back(pkt);
            } else {
                performWrite(*blk, pkt, now);
            }
        } else {
            GTSC_PANIC("TC L2 unexpected packet ", pkt.toString());
        }
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

bool
TcL2::tryInsert(Addr line, const mem::LineData &data, Cycle now)
{
    // Inclusive cache: only blocks whose lease has expired may be
    // evicted (delayed eviction, Section II-D3). Lines with stalled
    // operations queued on them are pinned as well.
    auto evictable = [this, now](const mem::CacheBlock &b) {
        return b.meta.leaseEnd <= now &&
               stalled_.find(b.lineAddr) == stalled_.end();
    };
    mem::CacheBlock *victim = array_.victim(line, evictable);
    if (!victim)
        return false;
    if (victim->valid) {
        ++(*evictions_);
        if (victim->dirty) {
            ++(*writebacks_);
            dram_.pushWrite(victim->lineAddr, victim->data, 0xffffffffu);
        }
    }
    array_.insert(*victim, line);
    victim->data = data;
    victim->meta.leaseEnd = 0;

    MissEntry *entry = misses_.find(line);
    GTSC_ASSERT(entry, "TC fill without miss entry");
    waitersScratch_.clear();
    waitersScratch_.swap(entry->waiters);
    misses_.erase(line);
    for (auto &w : waitersScratch_) {
        if (!process(w, now))
            GTSC_PANIC("TC waiter replay rejected");
    }
    return true;
}

void
TcL2::onDramFill(Addr line, const mem::LineData &data, Cycle now)
{
    if (!tryInsert(line, data, now))
        pendingInserts_.push_back(PendingInsert{line, data});
    // An event-queue callback that creates tick() work: a deferred
    // insert, or waiters replayed by tryInsert() landing in the
    // stall table (wake contract — per-cycle stall counters included).
    if (!pendingInserts_.empty() || !stalled_.empty())
        wake(now);
}

void
TcL2::drainStalled(Cycle now)
{
    if (!stalled_.empty())
        (*writeStallCycles_) += stalled_.size();
    for (auto it = stalled_.begin(); it != stalled_.end();) {
        auto &q = it->second;
        while (!q.empty()) {
            mem::Packet &head = q.front();
            mem::CacheBlock *blk = array_.lookup(it->first);
            GTSC_ASSERT(blk, "stalled op on non-resident TC line");
            if (head.type == mem::MsgType::BusWr) {
                if (blk->meta.leaseEnd > now)
                    break; // still leased: keep stalling
                performWrite(*blk, head, now);
            } else {
                serveRead(*blk, head, now);
            }
            q.pop_front();
        }
        if (q.empty())
            it = stalled_.erase(it);
        else
            ++it;
    }
}

void
TcL2::tick(Cycle now)
{
    // Retry delayed-eviction fills first.
    if (!pendingInserts_.empty()) {
        (*evictStallCycles_) += pendingInserts_.size();
        while (!pendingInserts_.empty()) {
            PendingInsert &pi = pendingInserts_.front();
            if (!tryInsert(pi.lineAddr, pi.data, now))
                break;
            pendingInserts_.pop_front();
        }
    }

    drainStalled(now);

    if (!queue_.empty())
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
