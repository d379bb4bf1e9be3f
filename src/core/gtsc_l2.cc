#include "core/gtsc_l2.hh"

#include <algorithm>
#include <string>

#include "core/gtsc_messages.hh"
#include "obs/tracer.hh"
#include "sim/log.hh"

namespace gtsc::core
{

GtscL2::GtscL2(PartitionId part, const sim::Config &cfg,
               sim::StatSet &stats, sim::EventQueue &events,
               mem::DramChannel &dram, mem::MainMemory &memory,
               TsDomain &domain, mem::CoherenceProbe *probe)
    : part_(part), stats_(stats), events_(events), dram_(dram),
      memory_(memory), domain_(domain), probe_(probe),
      array_(cfg.getUint("l2.partition_bytes"), cfg.getUint("l2.assoc"))
{
    ports_ = static_cast<unsigned>(cfg.getUint("l2.ports"));
    accessLatency_ = cfg.getUint("l2.access_latency");
    mshrCapacity_ = cfg.getUint("l2.mshr_entries");
    adaptiveLease_ = cfg.getBool("gtsc.adaptive_lease");
    std::string mutation = cfg.getString("verify.mutation");
    mutWriteIgnoresLease_ = mutation == "write_ignores_lease";
    mutRenewMismatch_ = mutation == "renew_mismatched_wts";
    if (!mutation.empty() && !mutWriteIgnoresLease_ &&
        !mutRenewMismatch_)
        GTSC_FATAL("unknown verify.mutation '", mutation, "'");
    maxLease_ = cfg.has("gtsc.max_lease") ? cfg.getUint("gtsc.max_lease")
                                          : domain_.lease() * 32;
    if (maxLease_ > domain_.tsMax() / 4)
        maxLease_ = domain_.tsMax() / 4;

    domain_.addResetListener([this]() { rewindTimestamps(); });

    accesses_ = &stats_.counter("l2.accesses");
    hits_ = &stats_.counter("l2.hits");
    missesStat_ = &stats_.counter("l2.misses");
    renewals_ = &stats_.counter("l2.renewals");
    fillsSent_ = &stats_.counter("l2.fills_sent");
    writes_ = &stats_.counter("l2.writes");
    evictions_ = &stats_.counter("l2.evictions");
    writebacks_ = &stats_.counter("l2.writebacks");
    stallMshrFull_ = &stats_.counter("l2.stall_mshr_full");
    queueCycles_ = &stats_.counter("l2.queue_occupancy_cycles");
    adaptiveExtensions_ = &stats_.counter("gtsc.adaptive_extensions");
    serviceLatency_ = &stats_.distribution("l2.service_latency");
}

bool
GtscL2::quiescent() const
{
    return queue_.empty() && misses_.empty();
}

void
GtscL2::attachTracer(obs::Tracer &tracer)
{
    trace_ = &tracer;
    track_ = tracer.track("l2.part" + std::to_string(part_));
}

void
GtscL2::rewindTimestamps()
{
    array_.forEachValid([this](mem::CacheBlock &blk) {
        blk.meta.wts = 1;
        blk.meta.rts = domain_.lease();
    });
    memTs_ = 1;
    if (trace_) {
        trace_->record(track_,
                       obs::Event{events_.now(), 0, domain_.epoch(), 0,
                                  obs::EventKind::EpochReset, 0, 0});
    }
}

void
GtscL2::flushAll(Cycle now)
{
    (void)now;
    GTSC_ASSERT(quiescent(), "L2 flush while busy");
    array_.forEachValid([this](mem::CacheBlock &blk) {
        memTs_ = std::max(memTs_, blk.meta.rts);
        if (blk.dirty)
            memory_.writeLine(blk.lineAddr, array_.dataOf(blk));
        array_.invalidate(blk);
    });
}

void
GtscL2::receiveRequest(mem::Packet &&pkt, Cycle now)
{
    queue_.push_back(std::move(pkt));
    // The service queue is this controller's only source of tick()
    // work; DRAM fills serve waiters directly (wake contract).
    wake(now);
}

void
GtscL2::normalizeEpoch(mem::Packet &pkt)
{
    if (pkt.epoch < domain_.epoch()) {
        // The requester predates the last timestamp reset: its
        // timestamps are meaningless in this epoch. Treat it as a
        // fresh epoch-1 requester and tell it to flush.
        pkt.warpTs = 1;
        pkt.wts = 0;
        pkt.epoch = domain_.epoch();
        pkt.tsReset = true;
    }
}

void
GtscL2::tickQueue(Cycle now)
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

bool
GtscL2::process(mem::Packet &pkt, Cycle now)
{
    normalizeEpoch(pkt);
    ++(*accesses_);
    if (pkt.injectedAt > 0) {
        serviceLatency_->sample(static_cast<double>(now - pkt.injectedAt));
        pkt.injectedAt = 0; // waiter replays sample only once
    }
    GTSC_DEBUG("L2[", part_, "] @", now, " <- ", pkt.toString(),
               " mem_ts=", memTs_);

    mem::CacheBlock *blk = array_.lookup(pkt.lineAddr);
    if (blk) {
        ++(*hits_);
        serveHit(*blk, pkt, now);
        return true;
    }

    // Miss: merge into an outstanding fetch or start one.
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
        // Runs from the event queue: events_.now() is the fill cycle.
        onDramFill(line, data, events_.now());
    });
    return true;
}

void
GtscL2::serveHit(mem::CacheBlock &blk, mem::Packet &pkt, Cycle now)
{
    if (pkt.type == mem::MsgType::BusRd)
        serveRead(blk, pkt, now);
    else if (pkt.type == mem::MsgType::BusWr)
        serveWrite(blk, pkt, now);
    else
        GTSC_PANIC("L2 received response-type packet ", pkt.toString());
}

void
GtscL2::serveRead(mem::CacheBlock &blk, mem::Packet &pkt, Cycle now)
{
    bool is_renewal = (pkt.wts != 0 && pkt.wts == blk.meta.wts);
    if (mutRenewMismatch_)
        is_renewal = (pkt.wts != 0); // broken: renew stale copies too

    // Adaptive lease (Tardis-2.0-style prediction): blocks that keep
    // getting renewed without intervening stores earn exponentially
    // longer leases, trading renewal traffic for faster timestamp
    // rollover.
    Ts lease = domain_.lease();
    if (adaptiveLease_) {
        unsigned shift = std::min<unsigned>(blk.meta.renewStreak, 16);
        Ts grown = lease << shift;
        lease = std::min(grown, maxLease_);
        if (is_renewal && blk.meta.renewStreak < 255) {
            ++blk.meta.renewStreak;
            ++(*adaptiveExtensions_);
        }
    }

    Ts new_rts = std::max(blk.meta.rts, pkt.warpTs + lease);
    if (new_rts > domain_.tsMax()) {
        // Overflow: domain-wide reset, then recompute in the new
        // epoch. The requester's old timestamps are void.
        domain_.triggerReset();
        normalizeEpoch(pkt);
        pkt.tsReset = true;
        // The requester's wts is void in the new epoch: never a
        // renewal (normalizeEpoch zeroed pkt.wts).
        is_renewal = false;
        new_rts = std::max(blk.meta.rts, pkt.warpTs + lease);
    }
    if (trace_ && new_rts > blk.meta.rts) {
        trace_->record(track_,
                       obs::Event{now, pkt.lineAddr, blk.meta.rts,
                                  new_rts, obs::EventKind::LeaseExtend,
                                  pkt.src, pkt.warp});
    }
    blk.meta.rts = new_rts;
    array_.touch(blk);

    mem::Packet resp;
    resp.lineAddr = pkt.lineAddr;
    resp.src = pkt.src;
    resp.part = part_;
    resp.warp = pkt.warp;
    resp.rts = new_rts;
    resp.epoch = domain_.epoch();
    resp.tsReset = pkt.tsReset;
    resp.reqId = pkt.reqId;

    if (is_renewal) {
        // Data unchanged since the requester's copy: renew only.
        resp.type = mem::MsgType::BusRnw;
        resp.sizeBytes = gtscMessageBytes(mem::MsgType::BusRnw,
                                          domain_.tsBytes(), 0);
        ++(*renewals_);
    } else {
        resp.type = mem::MsgType::BusFill;
        resp.wts = blk.meta.wts;
        resp.data = array_.dataOf(blk);
        resp.sizeBytes = gtscMessageBytes(mem::MsgType::BusFill,
                                          domain_.tsBytes(), 0);
        ++(*fillsSent_);
    }
    respond(std::move(resp), now);
}

void
GtscL2::serveWrite(mem::CacheBlock &blk, mem::Packet &pkt, Cycle now)
{
    Ts prev_wts = blk.meta.wts;
    // The paper's write rule: the new version is logically ordered
    // after every outstanding lease (wts' = max(rts+1, warp_ts)).
    // The write_ignores_lease mutation orders it only after the
    // current version — the classic timestamp-protocol bug the
    // verification lab must catch.
    Ts write_floor =
        mutWriteIgnoresLease_ ? blk.meta.wts + 1 : blk.meta.rts + 1;
    Ts new_wts = std::max(write_floor, pkt.warpTs);
    Ts new_rts = new_wts + domain_.lease();
    if (new_rts > domain_.tsMax()) {
        domain_.triggerReset();
        normalizeEpoch(pkt);
        pkt.tsReset = true;
        write_floor = mutWriteIgnoresLease_ ? blk.meta.wts + 1
                                            : blk.meta.rts + 1;
        new_wts = std::max(write_floor, pkt.warpTs);
        new_rts = new_wts + domain_.lease();
    }

    array_.dataOf(blk).mergeMasked(pkt.data, pkt.wordMask);
    blk.meta.wts = new_wts;
    blk.meta.rts = new_rts;
    blk.meta.renewStreak = 0; // data changed: restart prediction
    blk.dirty = true;
    array_.touch(blk);
    ++(*writes_);
    if (trace_) {
        trace_->record(track_,
                       obs::Event{now, pkt.lineAddr, new_wts, new_rts,
                                  obs::EventKind::WtsUpdate, pkt.src,
                                  pkt.warp});
    }

    if (probe_) {
        for (unsigned w = 0; w < mem::kWordsPerLine; ++w) {
            if (pkt.wordMask & (1u << w)) {
                probe_->onStoreTs(pkt.lineAddr + w * mem::kWordBytes,
                                  domain_.epoch(), new_wts,
                                  pkt.data.word(w), pkt.src, pkt.warp);
            }
        }
    }

    mem::Packet resp;
    resp.type = mem::MsgType::BusWrAck;
    resp.lineAddr = pkt.lineAddr;
    resp.src = pkt.src;
    resp.part = part_;
    resp.warp = pkt.warp;
    resp.wts = new_wts;
    resp.rts = new_rts;
    resp.prevWts = prev_wts;
    resp.epoch = domain_.epoch();
    resp.tsReset = pkt.tsReset;
    resp.reqId = pkt.reqId;
    resp.sizeBytes =
        gtscMessageBytes(mem::MsgType::BusWrAck, domain_.tsBytes(), 0);
    respond(std::move(resp), now);
}

void
GtscL2::evict(mem::CacheBlock &blk)
{
    // Non-inclusive: fold the lease into mem_ts so future stores to
    // this line are logically ordered after every outstanding copy.
    memTs_ = std::max(memTs_, blk.meta.rts);
    ++(*evictions_);
    if (blk.dirty) {
        ++(*writebacks_);
        dram_.pushWrite(blk.lineAddr, array_.dataOf(blk),
                        0xffffffffu);
    }
    array_.invalidate(blk);
}

void
GtscL2::onDramFill(Addr line, const mem::LineData &data, Cycle now)
{
    mem::CacheBlock *victim = array_.victim(line);
    GTSC_ASSERT(victim, "G-TSC L2 victim selection cannot fail");
    if (victim->valid)
        evict(*victim);
    array_.insert(*victim, line);
    array_.dataOf(*victim) = data;

    if (memTs_ + domain_.lease() > domain_.tsMax()) {
        domain_.triggerReset(); // rewinds memTs_ to 1
    }
    victim->meta.wts = memTs_;
    victim->meta.rts = memTs_ + domain_.lease();

    MissEntry *entry = misses_.find(line);
    GTSC_ASSERT(entry, "DRAM fill without miss entry");
    // Swap the waiters into the member scratch so their buffer
    // circulates back into the pool instead of being freed here.
    waitersScratch_.clear();
    waitersScratch_.swap(entry->waiters);
    misses_.erase(line);
    for (auto &w : waitersScratch_)
        serveHit(*victim, w, now);
}

L2VerifyState
GtscL2::captureVerifyState()
{
    GTSC_ASSERT(quiescent(), "L2 verify capture while busy");
    L2VerifyState s;
    array_.forEachValid([this, &s](mem::CacheBlock &blk) {
        VerifyLineState l;
        l.lineAddr = blk.lineAddr;
        l.dirty = blk.dirty;
        l.meta = blk.meta;
        l.data = array_.dataOf(blk);
        s.lines.push_back(std::move(l));
    });
    std::sort(s.lines.begin(), s.lines.end(),
              [](const VerifyLineState &a, const VerifyLineState &b) {
                  return a.lineAddr < b.lineAddr;
              });
    s.memTs = memTs_;
    return s;
}

void
GtscL2::restoreVerifyState(const L2VerifyState &s)
{
    GTSC_ASSERT(quiescent(), "L2 verify restore while busy");
    array_.invalidateAll();
    for (const VerifyLineState &l : s.lines) {
        mem::CacheBlock *blk = array_.victim(l.lineAddr);
        GTSC_ASSERT(blk && !blk->valid,
                    "verify restore must never capacity-evict");
        array_.insert(*blk, l.lineAddr);
        blk->dirty = l.dirty;
        blk->meta = l.meta;
        array_.dataOf(*blk) = l.data;
    }
    memTs_ = s.memTs;
}

bool
GtscL2::verifyEvictLine(Addr line_addr)
{
    mem::CacheBlock *blk = array_.lookup(line_addr);
    if (!blk)
        return false;
    evict(*blk);
    return true;
}

void
GtscL2::respond(mem::Packet &&resp, Cycle now)
{
    std::uint32_t slot = respPool_.acquire();
    respPool_[slot] = std::move(resp);
    events_.schedule(now + accessLatency_, [this, slot]() {
        send_(std::move(respPool_[slot]));
        respPool_.release(slot);
    });
}

} // namespace gtsc::core
