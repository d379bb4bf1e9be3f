#include "core/gtsc_l1.hh"

#include <algorithm>

#include <string>

#include "core/gtsc_messages.hh"
#include "obs/tracer.hh"
#include "sim/log.hh"

namespace gtsc::core
{

GtscL1::GtscL1(SmId sm, const sim::Config &cfg, sim::StatSet &stats,
               sim::EventQueue &events, TsDomain &domain,
               mem::CoherenceProbe *probe)
    : sm_(sm), stats_(stats), events_(events), domain_(domain),
      probe_(probe),
      array_(cfg.getUint("l1.size_bytes"), cfg.getUint("l1.assoc")),
      mshr_(cfg.getUint("l1.mshr_entries"))
{
    warpTs_.assign(cfg.getUint("gpu.warps_per_sm"), 1);
    numPartitions_ = cfg.getUnsigned("gpu.num_partitions");
    hitLatency_ = std::max<Cycle>(1, cfg.getUint("l1.hit_latency"));
    combine_ = cfg.getBool("gtsc.combine_mshr");
    std::string vis = cfg.getString("gtsc.update_visibility");
    if (vis == "block")
        visibility_ = Visibility::Block;
    else if (vis == "dualcopy")
        visibility_ = Visibility::DualCopy;
    else if (vis == "writebuffer")
        visibility_ = Visibility::WriteBuffer;
    else
        GTSC_FATAL("gtsc.update_visibility must be "
                   "block|dualcopy|writebuffer, got '",
                   vis, "'");
    writeBufferEntries_ = cfg.getUint("gtsc.write_buffer_entries");
    spinBoost_ = cfg.has("gtsc.spin_ts_boost")
                     ? cfg.getUint("gtsc.spin_ts_boost")
                     : domain_.lease();

    hits_ = &stats_.counter("l1.hits");
    missCold_ = &stats_.counter("l1.miss_cold");
    missExpired_ = &stats_.counter("l1.miss_expired");
    merged_ = &stats_.counter("l1.merged");
    renewalsSent_ = &stats_.counter("l1.renewals_sent");
    busRdSent_ = &stats_.counter("l1.busrd_sent");
    busWrSent_ = &stats_.counter("l1.buswr_sent");
    fillBypass_ = &stats_.counter("l1.fill_bypass");
    lockParks_ = &stats_.counter("l1.lock_parks");
    tagAccesses_ = &stats_.counter("l1.tag_accesses");
    dataReads_ = &stats_.counter("l1.data_reads");
    dataWrites_ = &stats_.counter("l1.data_writes");
    rejects_ = &stats_.counter("l1.rejects_mshr_full");
    staleResponses_ = &stats_.counter("l1.stale_epoch_responses");
    wbFullRejects_ = &stats_.counter("l1.wb_full_rejects");
    replayHits_ = &stats_.counter("l1.replay_hits");
    wbForwards_ = &stats_.counter("l1.wb_forwards");
    storeBaseStale_ = &stats_.counter("l1.store_base_stale");

    // A reset rewinds every warp timestamp and, through adoptEpoch on
    // the next access, the whole array: a rejected access may fare
    // differently afterwards.
    domain_.addResetListener([this]() { moveGeneration(); });
}

void
GtscL1::attachTracer(obs::Tracer &tracer)
{
    trace_ = &tracer;
    track_ = tracer.track("l1.sm" + std::to_string(sm_));
    mshr_.setTrace(&tracer, track_, &events_);
}

void
GtscL1::adoptEpoch()
{
    std::uint32_t visible = domain_.epoch();
    if (epoch_ == visible)
        return;
    epoch_ = visible;
    array_.invalidateAll();
    std::fill(warpTs_.begin(), warpTs_.end(), Ts{1});
    if (trace_) {
        trace_->record(track_, obs::Event{events_.now(), 0, epoch_, 0,
                                          obs::EventKind::EpochReset, 0,
                                          0});
    }
}

void
GtscL1::noteSpinRetry(WarpId warp, Addr line_addr)
{
    (void)line_addr;
    adoptEpoch();
    warpTs_[warp] = std::min(warpTs_[warp] + spinBoost_, domain_.tsMax());
    moveGeneration();
}

bool
GtscL1::quiescent() const
{
    return mshr_.size() == 0 && pendingStores_.empty() &&
           replayQueue_.empty();
}

void
GtscL1::flush(Cycle now)
{
    (void)now;
    GTSC_ASSERT(quiescent(), "L1 flush while busy");
    array_.invalidateAll();
    std::fill(warpTs_.begin(), warpTs_.end(), Ts{1});
    moveGeneration();
}

L1VerifyState
GtscL1::captureVerifyState()
{
    L1VerifyState s;
    array_.forEachValid([this, &s](mem::CacheBlock &blk) {
        VerifyLineState l;
        l.lineAddr = blk.lineAddr;
        l.dirty = blk.dirty;
        l.meta = blk.meta;
        l.data = blk.data;
        s.lines.push_back(std::move(l));
    });
    std::sort(s.lines.begin(), s.lines.end(),
              [](const VerifyLineState &a, const VerifyLineState &b) {
                  return a.lineAddr < b.lineAddr;
              });
    s.warpTs = warpTs_;
    s.epoch = epoch_;
    pendingStores_.forEach(
        [&s](std::uint64_t id, const PendingStore &ps) {
            s.pendingStores.push_back({id, ps.access, ps.baseWts,
                                       ps.hadBlock});
        });
    storeByLine_.forEach([&s](Addr line, std::uint64_t id) {
        s.storeByLine.emplace_back(line, id);
    });
    mshr_.forEach([&s](const mem::MshrEntry &e) {
        L1VerifyState::MshrEntryState m;
        m.lineAddr = e.lineAddr;
        m.requestSent = e.requestSent;
        m.outstanding = e.outstanding;
        m.lockWait = e.lockWait;
        m.requestWts = e.requestWts;
        m.waiters = e.waiters;
        s.mshr.push_back(std::move(m));
    });
    for (std::size_t i = 0; i < replayQueue_.size(); ++i)
        s.replayQueue.push_back(replayQueue_[i]);
    return s;
}

void
GtscL1::restoreVerifyState(const L1VerifyState &s)
{
    array_.invalidateAll();
    for (const VerifyLineState &l : s.lines) {
        mem::CacheBlock *blk = array_.victim(l.lineAddr);
        GTSC_ASSERT(blk && !blk->valid,
                    "verify restore must never capacity-evict");
        array_.insert(*blk, l.lineAddr);
        blk->dirty = l.dirty;
        blk->meta = l.meta;
        blk->data = l.data;
    }
    warpTs_ = s.warpTs;
    epoch_ = s.epoch;
    pendingStores_.clear();
    for (const auto &ps : s.pendingStores)
        pendingStores_.emplace(ps.id) = {ps.access, ps.baseWts, ps.hadBlock};
    storeByLine_.clear();
    for (const auto &[line, id] : s.storeByLine)
        storeByLine_.emplace(line) = id;
    mshr_.clear();
    for (const auto &m : s.mshr) {
        mem::MshrEntry *e = mshr_.alloc(m.lineAddr);
        GTSC_ASSERT(e, "verify restore exceeded MSHR capacity");
        e->requestSent = m.requestSent;
        e->outstanding = m.outstanding;
        e->lockWait = m.lockWait;
        e->requestWts = m.requestWts;
        e->waiters = m.waiters;
    }
    replayQueue_.clear();
    for (const mem::Access &a : s.replayQueue)
        replayQueue_.push_back(a);
    moveGeneration();
}

bool
GtscL1::verifyEvictLine(Addr line_addr)
{
    if (storeByLine_.contains(line_addr))
        return false;
    mem::CacheBlock *blk = array_.lookup(line_addr);
    if (!blk)
        return false;
    array_.invalidate(*blk);
    moveGeneration();
    return true;
}

bool
GtscL1::access(const mem::Access &acc, Cycle now)
{
    adoptEpoch();
    ++(*tagAccesses_);
    GTSC_DEBUG("L1[", sm_, "] @", now, " ",
               acc.isStore ? "store" : "load", " line=0x", std::hex,
               acc.lineAddr, std::dec, " warp=", acc.warp,
               " warp_ts=", warpTs_[acc.warp]);

    // Per-line ordering: anything parked on this line goes behind it.
    if (mem::MshrEntry *entry = mshr_.find(acc.lineAddr)) {
        entry->waiters.push_back(acc);
        ++(*merged_);
        // Forward-all mode sends a request per load even when one is
        // already outstanding (Section V-B trade-off).
        if (!combine_ && !entry->lockWait && !acc.isStore) {
            sendBusRd(acc.lineAddr, entry->requestWts,
                      warpTs_[acc.warp], acc.warp);
            ++entry->outstanding;
        }
        moveGeneration();
        return true;
    }

    mem::CacheBlock *blk = array_.lookup(acc.lineAddr);
    bool accepted = acc.isStore ? handleStore(acc, blk, now)
                                : handleLoad(acc, blk, now);
    if (accepted)
        moveGeneration();
    return accepted;
}

bool
GtscL1::parkBehindStore(const mem::Access &acc)
{
    mem::MshrEntry *entry = mshr_.alloc(acc.lineAddr);
    if (!entry)
        return reject(tagAccesses_, rejects_);
    entry->lockWait = true;
    entry->waiters.push_back(acc);
    ++(*lockParks_);
    return true;
}

bool
GtscL1::handleLoad(const mem::Access &acc, mem::CacheBlock *blk,
                   Cycle now)
{
    const std::uint64_t *store_id = storeByLine_.find(acc.lineAddr);
    const PendingStore *pending = nullptr;
    if (store_id) {
        // A store to this line is awaiting its ack (Section V-A).
        pending = pendingStores_.find(*store_id);
        GTSC_ASSERT(pending, "dangling store-by-line");
        switch (visibility_) {
          case Visibility::Block:
            return parkBehindStore(acc); // option 1: block everyone
          case Visibility::DualCopy:
            if (pending->access.warp == acc.warp)
                return parkBehindStore(acc); // writer waits
            // other warps read the old copy below
            break;
          case Visibility::WriteBuffer:
            // Nobody waits: other warps read the old copy; the
            // writer forwards from the buffered store below.
            break;
        }
    }

    if (blk && warpTs_[acc.warp] <= blk->meta.rts) {
        bool forward = visibility_ == Visibility::WriteBuffer &&
                       pending &&
                       pending->access.warp == acc.warp;
        completeLoadHit(acc, *blk, now,
                        forward ? &pending->access : nullptr);
        return true;
    }

    // Miss: cold (no tag) or expired lease for this warp.
    mem::MshrEntry *entry = mshr_.alloc(acc.lineAddr);
    if (!entry)
        return reject(tagAccesses_, rejects_);
    Ts req_wts = blk ? blk->meta.wts : Ts{0};
    if (!acc.replayed) {
        if (blk) {
            ++(*missExpired_);
            if (trace_) {
                trace_->record(
                    track_, obs::Event{now, acc.lineAddr, blk->meta.wts,
                                       blk->meta.rts,
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
    }
    entry->requestWts = req_wts;
    entry->requestSent = true;
    entry->outstanding = 1;
    entry->waiters.push_back(acc);
    sendBusRd(acc.lineAddr, req_wts, warpTs_[acc.warp], acc.warp);
    return true;
}

bool
GtscL1::handleStore(const mem::Access &acc, mem::CacheBlock *blk,
                    Cycle now)
{
    (void)now;
    if (storeByLine_.contains(acc.lineAddr))
        return parkBehindStore(acc); // one store in flight per line

    // Write-buffer mode: bounded entries model the LDST-unit area
    // cost the paper quantifies (~200 outstanding writes per store
    // instruction at full occupancy).
    if (visibility_ == Visibility::WriteBuffer &&
        pendingStores_.size() >= writeBufferEntries_)
        return reject(tagAccesses_, wbFullRejects_);

    PendingStore ps;
    ps.access = acc;
    if (blk) {
        // Write-through with local update. Option 1 exposes the new
        // data but blocks the line; options 2/3 keep the old copy
        // readable and merge on ack.
        if (visibility_ == Visibility::Block)
            blk->data.mergeMasked(acc.storeData, acc.wordMask);
        ps.hadBlock = true;
        ps.baseWts = blk->meta.wts;
        ++(*dataWrites_);
    }
    storeByLine_.emplace(acc.lineAddr) = acc.id;
    pendingStores_.emplace(acc.id) = ps;

    mem::Packet pkt;
    pkt.type = mem::MsgType::BusWr;
    pkt.lineAddr = acc.lineAddr;
    pkt.src = sm_;
    pkt.part = mem::partitionOf(acc.lineAddr, numPartitions_);
    pkt.warp = acc.warp;
    pkt.warpTs = warpTs_[acc.warp];
    pkt.epoch = epoch_;
    pkt.wordMask = acc.wordMask;
    pkt.data = acc.storeData;
    pkt.reqId = acc.id;
    pkt.sizeBytes = gtscMessageBytes(mem::MsgType::BusWr,
                                     domain_.tsBytes(), acc.wordMask);
    ++(*busWrSent_);
    send_(std::move(pkt));
    return true;
}

void
GtscL1::sendBusRd(Addr line, Ts req_wts, Ts warp_ts, WarpId warp)
{
    mem::Packet pkt;
    pkt.type = mem::MsgType::BusRd;
    pkt.lineAddr = line;
    pkt.src = sm_;
    pkt.part = mem::partitionOf(line, numPartitions_);
    pkt.warp = warp;
    pkt.wts = req_wts;
    pkt.warpTs = warp_ts;
    pkt.epoch = epoch_;
    pkt.sizeBytes =
        gtscMessageBytes(mem::MsgType::BusRd, domain_.tsBytes(), 0);
    ++(*busRdSent_);
    if (req_wts != 0) {
        ++(*renewalsSent_);
        if (trace_) {
            trace_->record(track_,
                           obs::Event{events_.now(), line, req_wts, 0,
                                      obs::EventKind::L1Renewal, warp,
                                      0});
        }
    }
    send_(std::move(pkt));
}

void
GtscL1::completeLoadHit(const mem::Access &acc,
                        const mem::CacheBlock &blk, Cycle now,
                        const mem::Access *forward)
{
    if (acc.replayed)
        ++(*replayHits_);
    else
        ++(*hits_);
    ++(*dataReads_);
    if (trace_) {
        trace_->record(track_,
                       obs::Event{now, acc.lineAddr, blk.meta.wts,
                                  blk.meta.rts, obs::EventKind::L1Hit,
                                  acc.warp, 0});
    }
    Ts load_ts = std::max(warpTs_[acc.warp], blk.meta.wts);
    warpTs_[acc.warp] = load_ts;

    std::uint32_t slot = loadReplies_.acquire();
    LoadReply &rec = loadReplies_[slot];
    rec.acc = acc;
    rec.res = {.data = blk.data,
               .l1Hit = true,
               .loadTs = load_ts,
               .epoch = epoch_};
    mem::AccessResult &res = rec.res;

    std::uint32_t forwarded_mask = 0;
    if (forward) {
        forwarded_mask = forward->wordMask;
        res.data.mergeMasked(forward->storeData, forwarded_mask);
        ++(*wbForwards_);
    }

    if (probe_) {
        for (unsigned w = 0; w < mem::kWordsPerLine; ++w) {
            // Forwarded words are the warp's own pending store —
            // register traffic, not a memory observation.
            if ((acc.wordMask & (1u << w)) &&
                !(forwarded_mask & (1u << w))) {
                probe_->onLoadTs(acc.lineAddr + w * mem::kWordBytes,
                                 epoch_, load_ts, res.data.word(w), sm_,
                                 acc.warp);
            }
        }
    }
    events_.schedule(now + hitLatency_, [this, slot]() {
        LoadReply &r = loadReplies_[slot];
        loadDone_(r.acc, r.res);
        loadReplies_.release(slot);
    });
}

void
GtscL1::completeLoadFromPacket(const mem::Access &acc,
                               const mem::Packet &pkt, Cycle now)
{
    Ts load_ts = std::max(warpTs_[acc.warp], pkt.wts);
    GTSC_ASSERT(load_ts <= pkt.rts, "bypass load outside lease");
    warpTs_[acc.warp] = load_ts;

    std::uint32_t slot = loadReplies_.acquire();
    LoadReply &rec = loadReplies_[slot];
    rec.acc = acc;
    rec.res = {.data = pkt.data, .loadTs = load_ts, .epoch = epoch_};
    mem::AccessResult &res = rec.res;

    if (probe_) {
        for (unsigned w = 0; w < mem::kWordsPerLine; ++w) {
            if (acc.wordMask & (1u << w)) {
                probe_->onLoadTs(acc.lineAddr + w * mem::kWordBytes,
                                 epoch_, load_ts, res.data.word(w), sm_,
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

void
GtscL1::queueReplay(std::vector<mem::Access> &waiters)
{
    for (auto &w : waiters) {
        w.replayed = true;
        replayQueue_.push_back(std::move(w));
    }
    waiters.clear();
}

void
GtscL1::receiveResponse(mem::Packet &&pkt, Cycle now)
{
    GTSC_DEBUG("L1[", sm_, "] @", now, " <- ", pkt.toString());
    moveGeneration();
    if (pkt.tsReset || pkt.epoch > epoch_)
        adoptEpoch();

    bool stale = pkt.epoch < domain_.epoch();
    if (stale)
        ++(*staleResponses_);

    switch (pkt.type) {
      case mem::MsgType::BusFill:
        if (stale) {
            // A pre-reset fill may predate stores that happened
            // before the reset, so it cannot stand in for the new
            // epoch's base version. Drop it; waiters re-request.
            resolveEntry(mshr_.find(pkt.lineAddr), nullptr, nullptr,
                         now);
            break;
        }
        onFill(pkt, now);
        break;
      case mem::MsgType::BusRnw:
        onRenew(pkt, now);
        break;
      case mem::MsgType::BusWrAck:
        onWrAck(pkt, now);
        break;
      default:
        GTSC_PANIC("L1 received request-type packet ", pkt.toString());
    }
    // Resolving an MSHR entry may queue replays — the only way this
    // controller acquires tick() work (wake contract).
    if (!replayQueue_.empty())
        wake(now);
}

void
GtscL1::onFill(mem::Packet &pkt, Cycle now)
{
    mem::MshrEntry *entry = mshr_.find(pkt.lineAddr);

    // Never clobber a line whose store is awaiting its ack: the local
    // copy (and its pending meta update) owns the line until then.
    // Loads the packet's lease covers may still complete from it.
    if (storeByLine_.contains(pkt.lineAddr)) {
        resolveEntry(entry, nullptr, &pkt, now);
        return;
    }

    mem::CacheBlock *blk = array_.lookup(pkt.lineAddr);
    if (!blk) {
        auto evictable = [this](const mem::CacheBlock &b) {
            return !storeByLine_.contains(b.lineAddr);
        };
        mem::CacheBlock *victim = array_.victim(pkt.lineAddr, evictable);
        if (victim) {
            // L1 is write-through: evicted lines are simply dropped.
            array_.insert(*victim, pkt.lineAddr);
            blk = victim;
        }
    }
    if (blk) {
        blk->data = pkt.data;
        blk->meta.wts = pkt.wts;
        blk->meta.rts = pkt.rts;
        blk->meta.epoch = pkt.epoch;
        array_.touch(*blk);
    } else {
        ++(*fillBypass_);
    }

    resolveEntry(entry, blk, &pkt, now);
}

/**
 * A response for this line arrived: complete every waiter the
 * current lease covers directly; waiters that still need a renewal
 * stay in the entry while more responses are outstanding
 * (forward-all) or re-enter access() to issue one (combining).
 */
void
GtscL1::resolveEntry(mem::MshrEntry *entry, mem::CacheBlock *blk,
                     const mem::Packet *pkt, Cycle now)
{
    if (!entry || entry->lockWait)
        return;
    if (entry->outstanding > 0)
        --entry->outstanding;

    // Complete covered loads in arrival order, but stop at the
    // first store: accesses queued behind a store must replay after
    // it performs (a same-warp load behind its own store must never
    // observe the pre-store value).
    std::vector<mem::Access> &remaining = resolveScratch_;
    remaining.clear();
    bool hit_store = false;
    for (auto &acc : entry->waiters) {
        if (!hit_store && !acc.isStore) {
            acc.replayed = true; // classified at first probe already
            if (blk && std::max(warpTs_[acc.warp], blk->meta.wts) <=
                           blk->meta.rts) {
                completeLoadHit(acc, *blk, now);
                continue;
            }
            if (!blk && pkt &&
                std::max(warpTs_[acc.warp], pkt->wts) <= pkt->rts) {
                completeLoadFromPacket(acc, *pkt, now);
                continue;
            }
        }
        hit_store |= acc.isStore;
        remaining.push_back(std::move(acc));
    }

    Addr line = entry->lineAddr;
    if (remaining.empty()) {
        mshr_.free(line);
    } else if (entry->outstanding == 0) {
        // No response still in flight: the leftovers re-enter
        // access() and trigger a (single) renewal request.
        mshr_.free(line);
        queueReplay(remaining);
    } else {
        // Swap so the entry keeps a recycled buffer and the scratch
        // inherits the entry's old one for the next resolve.
        entry->waiters.swap(remaining);
    }
}

void
GtscL1::onRenew(mem::Packet &pkt, Cycle now)
{
    mem::CacheBlock *blk = array_.lookup(pkt.lineAddr);
    bool stale = pkt.epoch < epoch_;
    if (blk && !stale && blk->meta.rts < pkt.rts)
        blk->meta.rts = pkt.rts;

    resolveEntry(mshr_.find(pkt.lineAddr), blk, nullptr, now);
}

void
GtscL1::onWrAck(mem::Packet &pkt, Cycle now)
{
    (void)now;
    PendingStore *psp = pendingStores_.find(pkt.reqId);
    GTSC_ASSERT(psp, "BusWrAck without pending store, reqId=", pkt.reqId);
    PendingStore ps = *psp;
    mem::Access acc = ps.access;
    pendingStores_.erase(pkt.reqId);

    std::uint64_t *line_id = storeByLine_.find(pkt.lineAddr);
    if (line_id && *line_id == pkt.reqId)
        storeByLine_.erase(pkt.lineAddr);

    bool stale = pkt.epoch < epoch_;
    mem::CacheBlock *blk = array_.lookup(pkt.lineAddr);
    if (blk && !stale) {
        // The merged line is only the true new version if the store
        // was applied on top of exactly the version we merged into;
        // otherwise another SM's store interleaved and our unwritten
        // words are stale — self-invalidate.
        if (ps.hadBlock && ps.baseWts == pkt.prevWts &&
            blk->meta.wts <= pkt.wts) {
            if (visibility_ != Visibility::Block) // 2/3 merge on ack
                blk->data.mergeMasked(acc.storeData, acc.wordMask);
            blk->meta.wts = pkt.wts;
            blk->meta.rts = pkt.rts;
            blk->meta.epoch = pkt.epoch;
        } else {
            array_.invalidate(*blk);
            ++(*storeBaseStale_);
        }
    }
    if (!stale)
        warpTs_[acc.warp] = std::max(warpTs_[acc.warp], pkt.wts);

    storeDone_(acc, 0);

    if (mem::MshrEntry *entry = mshr_.find(pkt.lineAddr)) {
        if (entry->lockWait) {
            resolveScratch_.clear();
            resolveScratch_.swap(entry->waiters);
            mshr_.free(pkt.lineAddr);
            queueReplay(resolveScratch_);
        }
    }
}

} // namespace gtsc::core
