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
    warpState_.assign(params_.warpsPerSm, WarpState::Idle);
    warpReadyAt_.assign(params_.warpsPerSm, 0);
    memRetry_.assign(params_.warpsPerSm, 0);
    readyMask_.resize(params_.warpsPerSm);
    waitComputeMask_.resize(params_.warpsPerSm);
    waitMemMask_.resize(params_.warpsPerSm);
    waitFenceMask_.resize(params_.warpsPerSm);
    retryMask_.resize(params_.warpsPerSm);
    storeFifoMask_.resize(params_.warpsPerSm);
    issueWidth_ = static_cast<unsigned>(cfg.getUint("gpu.issue_width"));
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

    // Callbacks must observe a now_ lagging the loop cycle by one.
    // A parked SM's now_ can lag further; catch up the skipped
    // (provably idle) cycles first, using the pre-callback stall
    // classification, then re-arm so the tick phase of the current
    // cycle processes the new warp state.
    l1_.setLoadDone(
        [this](const mem::Access &a, const mem::AccessResult &r) {
            if (schedNow_ && now_ + 1 < *schedNow_)
                accountThrough(*schedNow_ - 1);
            onLoadDone(a, r, now_);
            if (wake_)
                wake_();
        });
    l1_.setStoreDone([this](const mem::Access &a, Cycle gwct) {
        if (schedNow_ && now_ + 1 < *schedNow_)
            accountThrough(*schedNow_ - 1);
        onStoreDone(a, gwct, now_);
        if (wake_)
            wake_();
    });
}

void
Sm::flushStatWindow()
{
    *activeCycles_ += win_.activeCycles;
    *memStallCycles_ += win_.memStallCycles;
    *computeStallCycles_ += win_.computeStallCycles;
    *idleCycles_ += win_.idleCycles;
    *instrs_ += win_.instrs;
    *loads_ += win_.loads;
    *stores_ += win_.stores;
    *fences_ += win_.fences;
    *spinRetries_ += win_.spinRetries;
    *spinGiveups_ += win_.spinGiveups;
    *fenceStallCycles_ += win_.fenceStallCycles;
    win_ = StatWindow{};
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
    liveWarps_ = 0;
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
        warp.program = std::move(programs[w]);
        warpState_[w] =
            warp.program ? WarpState::Ready : WarpState::Idle;
        if (warp.program) {
            ++liveWarps_;
            readyMask_.set(w);
        }
        warp.hasCur = false;
        warpReadyAt_[w] = 0;
        memRetry_[w] = 0;
        warp.gwct = 0;
        warp.spinIters = 0;
    }
    lastIssued_ = 0;
    invalidateTickCache();
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
    if (warpState_[w] != WarpState::Done)
        setWarpState(w, WarpState::Ready);
    ++retiredTotal_;
    ++win_.instrs;
}

void
Sm::tick(Cycle now)
{
    now_ = now;
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
        win_.fenceStallCycles += waitFenceMask_.count();
        sim::forEachSetOr(
            waitComputeMask_, waitFenceMask_, [&](unsigned w) {
                if (warpState_[w] == WarpState::WaitCompute) {
                    if (now >= warpReadyAt_[w]) {
                        setWarpState(w, WarpState::Ready);
                        if (trace_)
                            traceWarp(obs::EventKind::WarpResume, now,
                                      w, 0, 0);
                    }
                } else if (fenceSatisfied(warps_[w], now)) {
                    setWarpState(w, WarpState::Ready);
                    // The fence instruction retires when it unblocks.
                    ++retiredTotal_;
                    ++win_.instrs;
                    if (trace_)
                        traceWarp(obs::EventKind::WarpResume, now, w,
                                  0, 0);
                }
            });
    }

    // Issue according to the configured scheduling policy. A warp
    // consumes a slot iff it has a structural retry pending or is
    // Ready (issueWarp on such a warp always returns true), so the
    // pickers are ctz scans over readyMask_|retryMask_.
    unsigned issued = 0;
    unsigned n = static_cast<unsigned>(warps_.size());
    for (unsigned slot = 0; slot < issueWidth_; ++slot) {
        unsigned pick = sim::BitMask::kNpos;
        switch (scheduler_) {
          case Scheduler::Gto:
            // Greedy: stick with the last issued warp, then oldest.
            if (readyMask_.test(lastIssued_) ||
                retryMask_.test(lastIssued_)) {
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
            unsigned start =
                (lastIssued_ + 1 == n) ? 0 : lastIssued_ + 1;
            pick = sim::findNextWrapOr(readyMask_, retryMask_, start);
            if (pick != sim::BitMask::kNpos)
                lastIssued_ = pick;
            break;
          }
        }
        if (pick == sim::BitMask::kNpos)
            break;
        bool progress = issueWarp(pick, now);
        GTSC_ASSERT(progress, "picked warp did not use its slot");
        ++issued;
    }

    // Cycle accounting for the stall breakdown (Figure 13).
    if (issued > 0) {
        ++win_.activeCycles;
        issueSlotsUsed_ += issued;
        // Issue changed warp state; the cached classification and
        // horizon no longer describe it.
        invalidateTickCache();
        return;
    }
    bool any_compute = waitComputeMask_.any();
    unsigned wait_fence = waitFenceMask_.count();
    bool any_mem = wait_fence != 0 || waitMemMask_.any();
    bool any_live = any_compute || any_mem || readyMask_.any();
    std::uint64_t *bucket;
    if (!any_live)
        bucket = &win_.idleCycles;
    else if (any_compute)
        bucket = &win_.computeStallCycles;
    else if (any_mem)
        bucket = &win_.memStallCycles;
    else
        bucket = &win_.idleCycles;
    ++(*bucket);

    // Cache the end-of-tick classification and horizon so the parked
    // stretch that follows costs O(1) to account: until an L1
    // callback mutates a warp (invalidateTickCache) or the horizon
    // arrives, a repeat of this pass could neither issue, wake a
    // warp, nor submit a buffered store — only the accounting above
    // would run, and fastForwardStats replays exactly that.
    cachedStallBucket_ = bucket;
    cachedWaitFence_ = wait_fence;
    horizonValid_ = false;
    cachedNextWork_ = nextWorkCycle(now);
    idleTickValid_ = true;
}

Cycle
Sm::nextWorkCycle(Cycle now) const
{
    // The horizon only moves when warp state does; cache it. The
    // max-clamp keeps a cached "work next cycle" answer correct when
    // re-asked at a later cycle (the pinning condition still holds,
    // so the answer is again "next cycle").
    if (!horizonValid_) {
        cachedNextWork_ = computeNextWork(now);
        horizonValid_ = true;
    }
    return std::max(cachedNextWork_, now + 1);
}

Cycle
Sm::computeNextWork(Cycle now) const
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
    // the L1 callback instead).
    if (readyMask_.any() || retryMask_.any())
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
    // Fast path: the cached no-issue classification (valid while
    // warp state is untouched since it was computed) already names
    // the bucket and the fence count, so a bulk span is two
    // additions. This is what keeps the main loop's deferred
    // catch-up O(1) per parked SM.
    if (idleTickValid_) {
        win_.fenceStallCycles +=
            static_cast<std::uint64_t>(cachedWaitFence_) * span;
        *cachedStallBucket_ += span;
        return;
    }
    // Mirrors the issued == 0 classification at the end of tick();
    // warp states cannot change inside a skipped range, so each
    // skipped cycle lands in the same bucket.
    bool any_compute = waitComputeMask_.any();
    unsigned wait_fence = waitFenceMask_.count();
    bool any_mem = wait_fence != 0 || waitMemMask_.any();
    bool any_live = any_compute || any_mem || readyMask_.any();
    win_.fenceStallCycles +=
        static_cast<std::uint64_t>(wait_fence) * span;
    std::uint64_t *bucket;
    if (!any_live)
        bucket = &win_.idleCycles;
    else if (any_compute)
        bucket = &win_.computeStallCycles;
    else if (any_mem)
        bucket = &win_.memStallCycles;
    else
        bucket = &win_.idleCycles;
    *bucket += span;
    // Re-establish the classification cache so the rest of the
    // parked stretch takes the fast path.
    cachedStallBucket_ = bucket;
    cachedWaitFence_ = wait_fence;
    idleTickValid_ = true;
}

bool
Sm::issueWarp(unsigned w, Cycle now)
{
    // Structural retries count as the warp's issue slot. memRetry_
    // is exactly "submits pending and not alias-blocked" (a warp
    // with pending submits is always in WaitMem), so the common
    // can't-issue case is decided from the SoA arrays alone.
    if (memRetry_[w]) {
        bool drained = drainSubmits(w, now);
        if (drained && warps_[w].inFlight == 0)
            finishMemInstr(w, now);
        return true;
    }

    if (warpState_[w] != WarpState::Ready)
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
        GTSC_ASSERT(liveWarps_ > 0, "Exit with no live warps");
        --liveWarps_;
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
        ++win_.fences;
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
            ++win_.stores;
        else
            ++win_.loads;

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
        if (trace_ && warpState_[w] == WarpState::WaitMem) {
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
            ++win_.spinRetries;
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
            ++win_.spinGiveups;
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
    invalidateTickCache();
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
        if (trace_ && warpState_[acc.warp] == WarpState::Ready) {
            traceWarp(obs::EventKind::WarpResume, now, acc.warp, 0,
                      acc.lineAddr);
        }
    }
}

void
Sm::onStoreDone(const mem::Access &acc, Cycle gwct, Cycle now)
{
    invalidateTickCache();
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
            if (trace_ && warpState_[acc.warp] == WarpState::Ready) {
                traceWarp(obs::EventKind::WarpResume, now, acc.warp, 0,
                          acc.lineAddr);
            }
        }
    }
}

} // namespace gtsc::gpu
