#include "gpu/sm.hh"

#include <algorithm>
#include <string>

#include "obs/tracer.hh"
#include "sim/log.hh"

namespace gtsc::gpu
{

Sm::Sm(SmId id, const GpuParams &params, const sim::Config &cfg,
       sim::StatSet &stats, mem::L1Controller &l1,
       StoreValueSource &values)
    : id_(id), params_(params), stats_(stats), l1_(l1),
      coalescer_(values)
{
    warps_.resize(params_.warpsPerSm);
    warpReadyAt_.assign(params_.warpsPerSm, 0);
    readyMask_.resize(params_.warpsPerSm);
    waitComputeMask_.resize(params_.warpsPerSm);
    waitMemMask_.resize(params_.warpsPerSm);
    waitFenceMask_.resize(params_.warpsPerSm);
    retryMask_.resize(params_.warpsPerSm);
    storeFifoMask_.resize(params_.warpsPerSm);
    spinBackoff_ = cfg.getUint("gpu.spin_backoff_cycles");
    std::string sched = cfg.getString("gpu.scheduler");
    if (sched == "gto")
        scheduler_ = Scheduler::Gto;
    else if (sched == "rr")
        scheduler_ = Scheduler::Rr;
    else if (sched == "oldest")
        scheduler_ = Scheduler::Oldest;
    else
        GTSC_FATAL("gpu.scheduler must be gto|rr|oldest, got '", sched,
                   "'");

    activeCycles_ = &stats_.counter("sm.active_cycles");
    memStallCycles_ = &stats_.counter("sm.mem_stall_cycles");
    computeStallCycles_ = &stats_.counter("sm.compute_stall_cycles");
    idleCycles_ = &stats_.counter("sm.idle_cycles");
    instrs_ = &stats_.counter("sm.instructions");
    loads_ = &stats_.counter("sm.loads");
    stores_ = &stats_.counter("sm.stores");
    fences_ = &stats_.counter("sm.fences");
    spinRetries_ = &stats_.counter("sm.spin_retries");
    spinGiveups_ = &stats_.counter("sm.spin_giveups");
    fenceStallCycles_ = &stats_.counter("sm.fence_stall_warp_cycles");

    l1_.setLoadDone(
        [this](const mem::Access &a, const mem::AccessResult &r) {
            enterCallback();
            onLoadDone(a, r, now_);
            leaveCallback();
        });
    l1_.setStoreDone([this](const mem::Access &a, Cycle gwct) {
        enterCallback();
        onStoreDone(a, gwct, now_);
        leaveCallback();
    });
    l1_.setGenerationHook([this] { onGenerationMoved(); });
}

void
Sm::enterCallback()
{
    // Callbacks must observe a now_ lagging the loop cycle by one.
    // A parked SM's now_ can lag further; catch up the skipped
    // (provably idle or doomed) cycles first, using the pre-callback
    // classification. The callback then changes warp state, so the
    // park no longer describes it (and a generation move inside the
    // callback needs no wake of its own).
    if (schedNow_ && now_ + 1 < *schedNow_)
        accountThrough(*schedNow_ - 1);
    parkedOn_ = sim::BitMask::kNpos;
}

void
Sm::leaveCallback()
{
    // Re-arm at the recomputed horizon: the current cycle when a
    // warp can issue, else the next wake. A callback that leaves the
    // pinned retry doomed (or a warp still waiting) costs no tick.
    parkedOn_ = doomedPick();
    if (wake_)
        wake_(nextWorkCycle(now_));
}

void
Sm::onGenerationMoved()
{
    if (parkedOn_ == sim::BitMask::kNpos)
        return;
    // Every skipped cycle before this one was a doomed retry at the
    // old generation; charge them while the park still describes
    // them, then retry for real this cycle. Every generation move
    // lands before this SM's tick phase (or inside its own tick or
    // callbacks, which clear the park first).
    Cycle now = schedNow_ ? *schedNow_ : now_ + 1;
    accountThrough(now - 1);
    parkedOn_ = sim::BitMask::kNpos;
    if (wake_)
        wake_(now);
}

unsigned
Sm::doomedPick() const
{
    // The pick tick() would make next, as long as no warp wakes and
    // no callback runs. Oldest takes the lowest ready-or-retry warp.
    // GTO sticks with its greedy warp, and a doomed warp is always
    // that one: its reject was its own pick, and GTO never leaves a
    // warp that is still retrying (leaving means an accept, which
    // moves the generation past its record). RR moves on every cycle
    // and never parks.
    if (scheduler_ == Scheduler::Rr)
        return sim::BitMask::kNpos;
    unsigned w = scheduler_ == Scheduler::Gto
                     ? lastIssued_
                     : sim::findFirstOr(readyMask_, retryMask_);
    return w != sim::BitMask::kNpos && retryDoomed(w)
               ? w
               : sim::BitMask::kNpos;
}

void
Sm::attachTracer(obs::Tracer &tracer)
{
    trace_ = &tracer;
    track_ = tracer.track("sm" + std::to_string(id_));
}

void
Sm::traceWarp(obs::EventKind kind, Cycle now, unsigned w,
              std::uint16_t detail, Addr addr)
{
    trace_->record(track_,
                   obs::Event{now, addr, 0, 0, kind,
                              static_cast<std::uint16_t>(w), detail});
}

void
Sm::launchKernel(std::vector<std::unique_ptr<WarpProgram>> &&programs)
{
    GTSC_ASSERT(programs.size() == warps_.size(),
                "program count != warp count");
    readyMask_.clearAll();
    waitComputeMask_.clearAll();
    waitMemMask_.clearAll();
    waitFenceMask_.clearAll();
    retryMask_.clearAll();
    GTSC_ASSERT(!storeFifoMask_.any(),
                "kernel launch with buffered stores");
    for (unsigned w = 0; w < warps_.size(); ++w) {
        WarpCtx &warp = warps_[w];
        GTSC_ASSERT(!warp.submitsPending() && warp.inFlight == 0,
                    "kernel launch with in-flight memory accesses");
        GTSC_ASSERT(warp.outstandingStores == 0 &&
                        warp.storeFifo.empty(),
                    "kernel launch with outstanding stores");
        GTSC_ASSERT(programs[w], "kernel launch without a warp program");
        warp.program = std::move(programs[w]);
        readyMask_.set(w);
        warp.hasCur = false;
        warpReadyAt_[w] = 0;
        warp.gwct = 0;
        warp.spinIters = 0;
    }
    lastIssued_ = 0;
    parkedOn_ = sim::BitMask::kNpos;
}

bool
Sm::quiescent() const
{
    for (const auto &warp : warps_) {
        if (warp.submitsPending() || warp.inFlight != 0 ||
            warp.outstandingStores != 0 || !warp.storeFifo.empty()) {
            return false;
        }
    }
    return true;
}

bool
Sm::fenceSatisfied(const WarpCtx &warp, Cycle now) const
{
    return warp.outstandingStores == 0 && now >= warp.gwct;
}

void
Sm::retire(unsigned w)
{
    WarpCtx &warp = warps_[w];
    warp.hasCur = false;
    warp.spinIters = 0;
    setWarpState(w, WarpState::Ready);
    ++*instrs_;
}

void
Sm::tick(Cycle now)
{
    now_ = now;
    // This tick decides afresh (a generation move from its own
    // accesses needs no wake).
    parkedOn_ = sim::BitMask::kNpos;
    // Wake timed and fence-blocked warps; retry store-buffer drains
    // that were structurally rejected. Both passes walk only the set
    // bits of the packed masks; the fat WarpCtx is touched for the
    // rare states that need it (fences, non-empty store buffers).
    if (storeFifoMask_.any()) {
        storeFifoMask_.forEachSet(
            [&](unsigned w) { drainStoreFifo(w, now); });
    }
    if (waitComputeMask_.any() || waitFenceMask_.any()) {
        // One merged ascending pass over both wait states: the
        // WarpResume events of compute- and fence-wakes on the same
        // cycle must interleave in warp order (the tracer keeps
        // insertion order within a cycle).
        *fenceStallCycles_ += waitFenceMask_.count();
        sim::forEachSetOr(
            waitComputeMask_, waitFenceMask_, [&](unsigned w) {
                if (waitComputeMask_.test(w)) {
                    if (now >= warpReadyAt_[w]) {
                        setWarpState(w, WarpState::Ready);
                        if (trace_)
                            traceWarp(obs::EventKind::WarpResume, now,
                                      w, 0, 0);
                    }
                } else if (fenceSatisfied(warps_[w], now)) {
                    setWarpState(w, WarpState::Ready);
                    // The fence instruction retires when it unblocks.
                    ++*instrs_;
                    if (trace_)
                        traceWarp(obs::EventKind::WarpResume, now, w,
                                  0, 0);
                }
            });
    }

    // Issue at most one warp, picked by the configured scheduling
    // policy. A warp consumes the slot iff it has a structural retry
    // pending or is Ready (issueWarp on such a warp always returns
    // true), so the pickers are ctz scans over readyMask_|retryMask_.
    unsigned pick = sim::BitMask::kNpos;
    switch (scheduler_) {
      case Scheduler::Gto:
        // Greedy: stick with the last issued warp, then oldest.
        if (readyMask_.test(lastIssued_) || retryMask_.test(lastIssued_)) {
            pick = lastIssued_;
            break;
        }
        [[fallthrough]];
      case Scheduler::Oldest:
        pick = sim::findFirstOr(readyMask_, retryMask_);
        if (pick != sim::BitMask::kNpos)
            lastIssued_ = pick;
        break;
      case Scheduler::Rr: {
        // Loose round-robin: start after the last issued warp.
        unsigned n = static_cast<unsigned>(warps_.size());
        unsigned start = (lastIssued_ + 1 == n) ? 0 : lastIssued_ + 1;
        pick = sim::findNextWrapOr(readyMask_, retryMask_, start);
        if (pick != sim::BitMask::kNpos)
            lastIssued_ = pick;
        break;
      }
    }

    // Cycle accounting for the stall breakdown (Figure 13).
    if (pick != sim::BitMask::kNpos) {
        bool progress = issueWarp(pick, now);
        GTSC_ASSERT(progress, "picked warp did not use its slot");
        ++*activeCycles_;
        ++issueSlotsUsed_;
        parkedOn_ = doomedPick();
        return;
    }
    ++*stallBucket();
}

std::uint64_t *
Sm::stallBucket() const
{
    if (waitComputeMask_.any())
        return computeStallCycles_;
    if (waitMemMask_.any() || waitFenceMask_.any())
        return memStallCycles_;
    return idleCycles_;
}

Cycle
Sm::nextWorkCycle(Cycle now) const
{
    Cycle next = kCycleNever;
    // Store-buffer drains retry l1_.access() every tick while
    // nothing is outstanding — that attempt can reject and count
    // stats, so it pins the horizon to the next cycle.
    for (unsigned k = 0; k < storeFifoMask_.numWords(); ++k) {
        std::uint64_t m = storeFifoMask_.word(k);
        while (m) {
            unsigned w = k * 64u +
                         static_cast<unsigned>(std::countr_zero(m));
            m &= m - 1;
            if (warps_[w].storesSubmitted == 0)
                return now + 1;
        }
    }
    // Ready warps issue next cycle; structural retries re-submit
    // every issue slot (a warp waiting only on completions wakes via
    // the L1 callback instead). A parked SM's picks are all doomed
    // retries, charged in bulk until a wake below or the L1's.
    if (parkedOn_ == sim::BitMask::kNpos &&
        (readyMask_.any() || retryMask_.any()))
        return now + 1;
    waitComputeMask_.forEachSet([&](unsigned w) {
        next = std::min(next, std::max(warpReadyAt_[w], now + 1));
    });
    // With no stores outstanding a fence clears once the GWCT
    // passes; otherwise the store ack drives the wake.
    waitFenceMask_.forEachSet([&](unsigned w) {
        if (warps_[w].outstandingStores == 0)
            next = std::min(next, std::max(warps_[w].gwct, now + 1));
    });
    return next;
}

void
Sm::fastForwardStats(Cycle span)
{
    if (parkedOn_ != sim::BitMask::kNpos) {
        // Each skipped cycle is the tick the park stands for: no warp
        // wakes, the pinned warp takes the slot and its retry repeats
        // its recorded reject.
        *fenceStallCycles_ +=
            static_cast<std::uint64_t>(waitFenceMask_.count()) * span;
        *activeCycles_ += span;
        issueSlotsUsed_ += span;
        warps_[parkedOn_].rejectCharge.charge(span);
        return;
    }
    // Warp states cannot change inside a skipped range, so each
    // skipped cycle is a no-issue tick() landing in the same bucket.
    *fenceStallCycles_ +=
        static_cast<std::uint64_t>(waitFenceMask_.count()) * span;
    *stallBucket() += span;
}

bool
Sm::issueWarp(unsigned w, Cycle now)
{
    // Structural retries count as the warp's issue slot. retryMask_
    // is exactly "submits pending and not alias-blocked" (a warp
    // with pending submits is always in WaitMem), so the common
    // can't-issue case is decided from the masks alone. A doomed
    // retry charges its recorded reject instead of asking.
    if (retryMask_.test(w)) {
        if (retryDoomed(w)) {
            warps_[w].rejectCharge.charge(1);
            return true;
        }
        bool drained = drainSubmits(w, now);
        if (drained && warps_[w].inFlight == 0)
            finishMemInstr(w, now);
        return true;
    }

    if (!readyMask_.test(w))
        return false;

    WarpCtx &warp = warps_[w];
    if (!warp.hasCur) {
        warp.cur = warp.program->next();
        warp.hasCur = true;
        // Decode the memory cursor once per fetch: the coalescing
        // plan survives spin-load retries of the same instruction.
        if (warp.cur.op == WarpInstr::Op::Load ||
            warp.cur.op == WarpInstr::Op::SpinLoad ||
            warp.cur.op == WarpInstr::Op::Store) {
            warp.plan = Coalescer::plan(warp.cur, params_.warpSize);
        }
    }
    return beginInstr(w, now);
}

bool
Sm::beginInstr(unsigned w, Cycle now)
{
    WarpCtx &warp = warps_[w];
    const WarpInstr &instr = warp.cur;

    if (trace_) {
        bool is_mem = instr.op == WarpInstr::Op::Load ||
                      instr.op == WarpInstr::Op::SpinLoad ||
                      instr.op == WarpInstr::Op::Store;
        traceWarp(obs::EventKind::WarpIssue, now, w,
                  static_cast<std::uint16_t>(instr.op),
                  is_mem ? instr.laneAddr(0) : 0);
    }

    switch (instr.op) {
      case WarpInstr::Op::Exit:
        setWarpState(w, WarpState::Done);
        warp.hasCur = false;
        return true;

      case WarpInstr::Op::Compute: {
        std::uint32_t cycles = instr.computeCycles;
        warpReadyAt_[w] = now + cycles;
        retire(w);
        if (cycles > 0)
            setWarpState(w, WarpState::WaitCompute);
        return true;
      }

      case WarpInstr::Op::Fence:
        ++*fences_;
        if (fenceSatisfied(warp, now)) {
            retire(w);
        } else {
            setWarpState(w, WarpState::WaitFence);
            warp.hasCur = false; // retires on wake
            if (trace_) {
                traceWarp(obs::EventKind::WarpStall, now, w,
                          static_cast<std::uint16_t>(
                              obs::StallReason::Fence),
                          0);
            }
        }
        return true;

      case WarpInstr::Op::Load:
      case WarpInstr::Op::SpinLoad:
      case WarpInstr::Op::Store: {
        bool is_store = instr.op == WarpInstr::Op::Store;
        std::vector<mem::Access> &accesses = coalesceBuf_;
        coalescer_.coalesce(instr, warp.plan, params_.warpSize, id_,
                            static_cast<WarpId>(w), accesses);
        GTSC_ASSERT(!accesses.empty(), "memory instr with no active lanes");
        if (is_store)
            ++*stores_;
        else
            ++*loads_;

        for (auto &acc : accesses) {
            acc.id = nextAccessId_++;
            if (is_store) {
                ++warp.outstandingStores;
                if (params_.consistency == Consistency::SC)
                    ++warp.inFlight;
            } else {
                ++warp.inFlight;
            }
        }

        if (is_store && params_.consistency == Consistency::TSO) {
            // TSO: the store retires into the per-warp store buffer
            // and drains in order, one outstanding at a time.
            if (warp.storeFifo.empty())
                storeFifoMask_.set(w);
            for (auto &acc : accesses)
                warp.storeFifo.push_back(std::move(acc));
            retire(w);
            drainStoreFifo(w, now);
            return true;
        }
        if (!is_store && params_.consistency == Consistency::TSO &&
            !warp.storeFifo.empty()) {
            // No store-to-load forwarding hardware: a load aliasing
            // a buffered store waits for the buffer to drain.
            bool alias = false;
            for (const auto &acc : accesses) {
                for (std::size_t i = 0; i < warp.storeFifo.size(); ++i)
                    alias |= (warp.storeFifo[i].lineAddr == acc.lineAddr);
            }
            if (alias) {
                warp.toSubmit.swap(accesses);
                warp.submitHead = 0;
                setWarpState(w, WarpState::WaitMem);
                warp.loadWaitsStores = true;
                setMemRetry(w, false); // alias-blocked: no retry until drain
                if (trace_) {
                    traceWarp(obs::EventKind::WarpStall, now, w,
                              static_cast<std::uint16_t>(
                                  obs::StallReason::Mem),
                              instr.laneAddr(0));
                }
                return true;
            }
        }

        warp.toSubmit.swap(accesses);
        warp.submitHead = 0;
        setWarpState(w, WarpState::WaitMem);
        bool drained = drainSubmits(w, now);
        if (drained && warp.inFlight == 0)
            finishMemInstr(w, now);
        if (trace_ && waitMemMask_.test(w)) {
            traceWarp(obs::EventKind::WarpStall, now, w,
                      static_cast<std::uint16_t>(obs::StallReason::Mem),
                      instr.laneAddr(0));
        }
        return true;
      }
    }
    GTSC_PANIC("unhandled opcode");
}

void
Sm::drainStoreFifo(unsigned w, Cycle now)
{
    WarpCtx &warp = warps_[w];
    if (warp.storeFifo.empty())
        return;
    // One-deep store buffer: submit the next store only when the
    // previous one has been acknowledged.
    while (warp.storesSubmitted == 0 && !warp.storeFifo.empty()) {
        if (!l1_.access(warp.storeFifo.front(), now))
            break;
        warp.storeFifo.pop_front();
        ++warp.storesSubmitted;
    }
    if (warp.storeFifo.empty())
        storeFifoMask_.clear(w);
}

bool
Sm::drainSubmits(unsigned w, Cycle now)
{
    WarpCtx &warp = warps_[w];
    while (warp.submitHead < warp.toSubmit.size()) {
        if (!l1_.access(warp.toSubmit[warp.submitHead], now)) {
            warp.rejectGen = l1_.rejectGeneration();
            warp.rejectCharge = l1_.lastReject();
            setMemRetry(w, true);
            return false;
        }
        ++warp.submitHead;
    }
    // Leave the drained elements in place (submitHead == size means
    // fully drained): the next coalesce into this buffer recycles
    // them via Access::beginLine instead of re-constructing, so load
    // payload bytes are never re-zeroed on the hot path.
    setMemRetry(w, false);
    return true;
}

void
Sm::finishMemInstr(unsigned w, Cycle now)
{
    WarpCtx &warp = warps_[w];
    GTSC_ASSERT(warp.inFlight == 0 && !warp.submitsPending(),
                "finishMemInstr with work outstanding");
    if (!warp.hasCur) {
        return;
    }
    if (warp.cur.op == WarpInstr::Op::SpinLoad) {
        bool satisfied = warp.spinObserved >= warp.cur.spinExpect;
        if (!satisfied && warp.spinIters + 1 < warp.cur.spinMaxIters) {
            // Retry after a short backoff; tell the protocol so
            // G-TSC can advance the warp's logical clock.
            ++warp.spinIters;
            ++*spinRetries_;
            l1_.noteSpinRetry(static_cast<WarpId>(w),
                              mem::lineAlign(warp.cur.laneAddr(0)));
            warpReadyAt_[w] = now + spinBackoff_;
            setWarpState(w, WarpState::WaitCompute);
            if (trace_) {
                traceWarp(obs::EventKind::WarpStall, now, w,
                          static_cast<std::uint16_t>(
                              obs::StallReason::Compute),
                          warp.cur.laneAddr(0));
            }
            return;
        }
        if (!satisfied)
            ++*spinGiveups_;
    }
    if (warp.cur.op == WarpInstr::Op::Load ||
        warp.cur.op == WarpInstr::Op::SpinLoad) {
        warp.program->observe(warp.spinObserved);
    }
    retire(w);
}

void
Sm::onLoadDone(const mem::Access &acc, const mem::AccessResult &res,
               Cycle now)
{
    WarpCtx &warp = warps_[acc.warp];
    GTSC_ASSERT(warp.inFlight > 0, "load completion with none in flight");
    --warp.inFlight;
    if (warp.hasCur &&
        (warp.cur.op == WarpInstr::Op::SpinLoad ||
         warp.cur.op == WarpInstr::Op::Load)) {
        Addr lane0 = warp.cur.laneAddr(0);
        if (mem::lineAlign(lane0) == acc.lineAddr)
            warp.spinObserved = res.data.word(mem::wordInLine(lane0));
    }
    if (warp.inFlight == 0 && !warp.submitsPending()) {
        finishMemInstr(acc.warp, now);
        if (trace_ && readyMask_.test(acc.warp)) {
            traceWarp(obs::EventKind::WarpResume, now, acc.warp, 0,
                      acc.lineAddr);
        }
    }
}

void
Sm::onStoreDone(const mem::Access &acc, Cycle gwct, Cycle now)
{
    WarpCtx &warp = warps_[acc.warp];
    GTSC_ASSERT(warp.outstandingStores > 0,
                "store ack with none outstanding");
    --warp.outstandingStores;
    if (gwct > warp.gwct)
        warp.gwct = gwct;
    if (params_.consistency == Consistency::TSO) {
        GTSC_ASSERT(warp.storesSubmitted > 0,
                    "TSO ack without submitted store");
        --warp.storesSubmitted;
        drainStoreFifo(acc.warp, now);
        if (warp.loadWaitsStores && warp.storeFifo.empty() &&
            warp.storesSubmitted == 0) {
            // Aliased load may proceed; its submits resume on the
            // warp's next issue slot.
            warp.loadWaitsStores = false;
            setMemRetry(acc.warp, warp.submitsPending());
        }
    }
    if (params_.consistency == Consistency::SC) {
        GTSC_ASSERT(warp.inFlight > 0, "SC store ack with none in flight");
        --warp.inFlight;
        if (warp.inFlight == 0 && !warp.submitsPending()) {
            finishMemInstr(acc.warp, now);
            if (trace_ && readyMask_.test(acc.warp)) {
                traceWarp(obs::EventKind::WarpResume, now, acc.warp, 0,
                          acc.lineAddr);
            }
        }
    }
}

} // namespace gtsc::gpu
